package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"

	"authtext"
	"authtext/internal/core"
	"authtext/internal/httpapi"
	"authtext/internal/index"
	"authtext/internal/textproc"
	"authtext/internal/wire"
)

// oracleQueries is how many seeded queries per run are compared with the
// brute-force scan.
const oracleQueries = 50

// checkOracle asks the daemon the first oracleQueries queries of the
// stream through the verifying client and compares every answer with
// core.PSCAN — a scan of every posting of every query term — over the
// same collection reopened from its snapshot. Verification proves an
// answer consistent with the owner's signatures; the oracle proves the
// ranking itself right, so a build that weakened either cannot produce
// numbers.
func checkOracle(ctx context.Context, rc *authtext.RemoteClient, idx *index.Index, w *workloadSpec, queries []string) error {
	src := &core.MemSource{Idx: idx}
	for i := 0; i < oracleQueries && i < len(queries); i++ {
		res, err := rc.Search(ctx, queries[i], resultSize, w.algo, w.scheme)
		if err != nil {
			return fmt.Errorf("oracle query %d %q: %w", i, queries[i], err)
		}
		q, err := core.BuildQuery(idx, textproc.Terms(queries[i]))
		if err != nil {
			return err
		}
		all, err := core.PSCAN(q, src)
		if err != nil {
			return err
		}
		trueScore := make(map[index.DocID]float64, len(all))
		for _, e := range all {
			trueScore[e.Doc] = e.Score
		}
		want := all
		if len(want) > resultSize {
			want = want[:resultSize]
		}
		if len(res.Hits) != len(want) {
			return fmt.Errorf("oracle query %d %q: %d hits, brute force finds %d", i, queries[i], len(res.Hits), len(want))
		}
		for k, h := range res.Hits {
			// Documents that tie on score may legitimately swap places, so
			// positions are compared by the true score of the document
			// returned there, not by document ID.
			ts, ok := trueScore[index.DocID(h.DocID)]
			if !ok || math.Abs(ts-want[k].Score) > 1e-9 {
				return fmt.Errorf("oracle query %d %q: position %d holds doc %d (true score %v), brute force ranks doc %d (score %v) there",
					i, queries[i], k, h.DocID, ts, want[k].Doc, want[k].Score)
			}
			// TRA reports exact scores; TNRA reports the lower bound that
			// sufficed to fix the order (§3.4).
			if h.Score > ts+1e-9 || (w.algo == authtext.TRA && math.Abs(h.Score-ts) > 1e-9) {
				return fmt.Errorf("oracle query %d %q: doc %d reported score %v, true score %v", i, queries[i], h.DocID, h.Score, ts)
			}
		}
	}
	return nil
}

// tamperProxy forwards to the daemon and flips one byte in the middle of
// the VO of every search answer, re-framing the response so that only
// verification — not the frame CRC — can notice.
func tamperProxy(base string) *httptest.Server {
	hc := &http.Client{Timeout: requestTimeout}
	return httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		fwd, err := http.NewRequestWithContext(req.Context(), req.Method, base+req.URL.RequestURI(), req.Body)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadGateway)
			return
		}
		fwd.Header = req.Header.Clone()
		resp, err := hc.Do(fwd)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadGateway)
			return
		}
		if req.URL.Path == httpapi.PathSearch && resp.StatusCode == http.StatusOK {
			if sr, err := wire.DecodeSearchResponse(body); err == nil && len(sr.VO) > 0 {
				sr.VO = bytes.Clone(sr.VO)
				sr.VO[len(sr.VO)/2] ^= 0x01
				body = wire.EncodeSearchResponse(sr)
			}
		}
		for k, vs := range resp.Header {
			rw.Header()[k] = vs
		}
		rw.Header().Set("Content-Length", strconv.Itoa(len(body)))
		rw.WriteHeader(resp.StatusCode)
		_, _ = rw.Write(body) // a client that hung up fails its own Search
	}))
}

// checkTamperCanary sends one query through tamperProxy and demands that
// the verifying client classifies the answer as tampered and counts
// exactly one rejection. It returns that count.
func checkTamperCanary(ctx context.Context, base string, w *workloadSpec, query string) (int, error) {
	proxy := tamperProxy(base)
	defer proxy.Close()
	m := authtext.NewMetrics()
	rc, _, err := newVerifyingClient(proxy.URL, 1, authtext.WithClientMetrics(m))
	if err != nil {
		return 0, err
	}
	_, err = rc.Search(ctx, query, resultSize, w.algo, w.scheme)
	if !authtext.IsTampered(err) {
		return 0, fmt.Errorf("tamper canary: a flipped VO byte was not rejected as tampering (err = %v)", err)
	}
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		return 0, err
	}
	sc, err := parseScrape(&buf)
	if err != nil {
		return 0, err
	}
	n := int(sc.value("authtext_client_tamper_rejections_total"))
	if n != 1 {
		return n, fmt.Errorf("tamper canary: %d tamper rejections counted, want exactly 1", n)
	}
	return n, nil
}
