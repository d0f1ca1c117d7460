package authtext

import (
	"time"

	"authtext/internal/engine"
)

// ServerForTest wraps a prebuilt engine collection in the facade Server,
// so external tests (package authtext_test, which can import
// internal/experiments without a cycle) can benchmark the facade over the
// shared experiment fixture without re-running the authenticated build.
// Test-only: this file compiles only into the test binary.
func ServerForTest(col *engine.Collection) *Server { return &Server{v: served{col: col}} }

// DefaultHTTPTimeoutForTest is the timeout of a remote client's default
// transport, for the external transport tests.
const DefaultHTTPTimeoutForTest = defaultHTTPTimeout

// HTTPTimeoutForTest reports the timeout of rc's HTTP client.
func (rc *RemoteClient) HTTPTimeoutForTest() time.Duration { return rc.hc.Timeout }
