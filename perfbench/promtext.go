package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// parseMetrics reads a Prometheus text exposition (the simd /metrics page)
// into a map from series — the metric name plus its label set exactly as
// written, e.g. `simd_requests_total{code="200"}` — to value. Comment and
// blank lines are skipped; a malformed sample line is an error.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value follows the last space; a label value may itself hold
		// spaces, so split from the right.
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics line %d: no value in %q", n, line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %v", n, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}
