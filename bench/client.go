package main

import (
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"authtext"
	"authtext/internal/httpapi"
)

// countingTransport counts the /v1/search response bodies that pass
// through it, for response_bytes_per_query. It wraps the transport of the
// one RemoteClient that carries the load.
type countingTransport struct {
	rt        http.RoundTripper
	bytes     atomic.Int64
	responses atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.rt.RoundTrip(req)
	if err == nil && req.URL.Path == httpapi.PathSearch {
		c.responses.Add(1)
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.bytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// newVerifyingClient returns a RemoteClient for the daemon at base that
// uses at most conns connections, all kept alive. Every answer it returns
// has been verified against the owner's manifest.
func newVerifyingClient(base string, conns int, opts ...authtext.RemoteOption) (*authtext.RemoteClient, *countingTransport, error) {
	ct := &countingTransport{rt: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     90 * time.Second,
		// Frames carry their own deflate; gzip on top would only add CPU
		// and hide the real body size.
		DisableCompression: true,
	}}
	// Each request carries its own deadline (requestTimeout).
	hc := &http.Client{Transport: ct}
	rc, err := authtext.NewRemoteClient(base, append([]authtext.RemoteOption{authtext.WithHTTPClient(hc)}, opts...)...)
	return rc, ct, err
}
