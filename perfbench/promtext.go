package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// series maps a Prometheus text-format series ("name" or
// "name{labels}") to its value.
type series map[string]float64

// parseProm reads Prometheus text exposition 0.0.4: comment lines are
// skipped, every other non-blank line is "series value [timestamp]".
func parseProm(r io.Reader) (series, error) {
	out := series{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		// The series name may carry labels with spaces inside quotes, so
		// split at the last space before the value (and timestamp).
		cut := strings.LastIndexByte(text, '}')
		rest := text
		name := ""
		if cut >= 0 {
			name, rest = text[:cut+1], strings.TrimSpace(text[cut+1:])
		} else {
			f := strings.Fields(text)
			if len(f) < 2 {
				return nil, fmt.Errorf("metrics line %d: no value in %q", line, text)
			}
			name, rest = f[0], strings.Join(f[1:], " ")
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics line %d: no value in %q", line, text)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// delta is after minus before, series by series (a series missing from
// before counts from zero).
func delta(before, after series) series {
	out := make(series, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// sum adds every series of the metric family name, whatever its labels.
func (s series) sum(name string) float64 {
	total := 0.0
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// scrape fetches and parses url/metrics.
func scrape(hc *http.Client, url string) (series, error) {
	resp, err := hc.Get(url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: HTTP %d", url, resp.StatusCode)
	}
	return parseProm(resp.Body)
}
