package main

import (
	"context"
	"fmt"
	"io"
	"net/http"

	"authtext/internal/obs"
)

// scrape is one parsed Prometheus exposition: series identity (name plus
// sorted labels, as obs.Sample.Key renders it) → value. The benchmark
// instruments nothing inside the daemon; loaded per-layer numbers are
// differences between two scrapes of the daemon's own /v1/metrics taken
// around a phase, so the benchmark and a production dashboard read the
// same instruments.
type scrape map[string]float64

func parseScrape(r io.Reader) (scrape, error) {
	samples, err := obs.Parse(r)
	if err != nil {
		return nil, err
	}
	s := make(scrape, len(samples))
	for _, sm := range samples {
		s[sm.Key()] = sm.Value
	}
	return s, nil
}

// fetchScrape GETs url (a /v1/metrics endpoint) and parses the body.
func fetchScrape(ctx context.Context, hc *http.Client, url string) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return parseScrape(resp.Body)
}

func seriesKey(name string, labels ...obs.Label) string {
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.Name] = l.Value
	}
	return obs.Sample{Name: name, Labels: m}.Key()
}

// value reads a series (a gauge, or a counter's running total); 0 when
// the daemon does not export it — an uncached daemon has no vocache
// series.
func (s scrape) value(name string, labels ...obs.Label) float64 {
	return s[seriesKey(name, labels...)]
}

// delta is after − before, series by series. It is meaningful for
// counters and for the _sum/_count/_bucket samples of histograms; read
// gauges from the later scrape directly.
func (s scrape) delta(before scrape) scrape {
	d := make(scrape, len(s))
	for k, v := range s {
		d[k] = v - before[k]
	}
	return d
}

// histCount and histMeanUs read a histogram family out of a delta: the
// number of observations in the interval and their mean in microseconds.
func (s scrape) histCount(name string, labels ...obs.Label) float64 {
	return s.value(name+"_count", labels...)
}

func (s scrape) histMeanUs(name string, labels ...obs.Label) float64 {
	return 1e6 * ratio(s.value(name+"_sum", labels...), s.histCount(name, labels...))
}
