package main

import (
	"fmt"
	"strconv"
	"strings"
)

// metrics is one /metrics scrape: every sample line, keyed by the full
// series ("name{labels}").
type metrics map[string]float64

// parseMetrics reads the Prometheus text exposition cobrad serves.
func parseMetrics(text string) (metrics, error) {
	m := metrics{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed metrics line %q: %w", line, err)
		}
		m[line[:i]] = v
	}
	return m, nil
}

// sum adds every series of the metric name whose labels include all the
// given name="value" pairs.
func (m metrics) sum(name string, labels ...string) float64 {
	var total float64
	for series, v := range m {
		if seriesName(series) != name || !hasLabels(series, labels) {
			continue
		}
		total += v
	}
	return total
}

func seriesName(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

func hasLabels(series string, labels []string) bool {
	for _, l := range labels {
		if !strings.Contains(series, "{"+l) && !strings.Contains(series, ","+l) {
			return false
		}
	}
	return true
}

// delta is after − before, series by series (counters and histogram
// sums; gauges are meaningless as deltas and are not read this way).
func delta(before, after metrics) metrics {
	d := metrics{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// label formats one label matcher for sum.
func label(k, v string) string { return k + `="` + v + `"` }
