package authtext

import "authtext/internal/engine"

// ServerForTest wraps a prebuilt engine collection in the facade Server,
// so external tests (package authtext_test, which can import
// internal/experiments without a cycle) can benchmark the facade over the
// shared experiment fixture without re-running the authenticated build.
// Test-only: this file compiles only into the test binary.
func ServerForTest(col *engine.Collection) *Server { return &Server{v: served{col: col}} }
