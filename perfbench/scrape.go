package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// scrape is one parsed OpenMetrics exposition from a clusterd /metrics
// endpoint: sample name (with its label set) -> value.
type scrape map[string]float64

func fetchScrape(client *http.Client, baseURL string) (scrape, error) {
	resp, err := client.Get(baseURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseScrape(resp.Body)
}

func parseScrape(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every sample of a family (all label sets) whose labels
// contain every given "k=\"v\"" fragment.
func (s scrape) sum(family string, labels ...string) float64 {
	total := 0.0
	for k, v := range s {
		name, rest, _ := strings.Cut(k, "{")
		if name != family {
			continue
		}
		ok := true
		for _, l := range labels {
			ok = ok && strings.Contains(rest, l)
		}
		if ok {
			total += v
		}
	}
	return total
}

// bucket is one cumulative histogram bucket.
type bucket struct {
	le    float64
	count float64
}

// buckets collects a histogram family's cumulative buckets, merging
// every label set (per-peer or per-policy children) bound by bound.
func (s scrape) buckets(family string) []bucket {
	byLE := map[float64]float64{}
	for k, v := range s {
		name, rest, _ := strings.Cut(k, "{")
		if name != family+"_bucket" {
			continue
		}
		_, after, ok := strings.Cut(rest, `le="`)
		if !ok {
			continue
		}
		leStr, _, _ := strings.Cut(after, `"`)
		le := math.Inf(1)
		if leStr != "+Inf" {
			f, err := strconv.ParseFloat(leStr, 64)
			if err != nil {
				continue
			}
			le = f
		}
		byLE[le] += v
	}
	out := make([]bucket, 0, len(byLE))
	for le, c := range byLE {
		out = append(out, bucket{le, c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].le < out[j].le })
	return out
}

// quantileMS estimates a histogram family's q-quantile in
// milliseconds the way telemetry.Histogram.Quantile does: find the
// bucket holding the rank and interpolate linearly inside it (the +Inf
// bucket reports its lower bound). An empty histogram reads 0.
func (s scrape) quantileMS(family string, q float64) float64 {
	bs := s.buckets(family)
	if len(bs) == 0 || bs[len(bs)-1].count == 0 {
		return 0
	}
	total := bs[len(bs)-1].count
	rank := math.Max(1, math.Ceil(q*total))
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.count >= rank {
			if math.IsInf(b.le, 1) {
				return lo * 1e3
			}
			return (lo + (b.le-lo)*(rank-prev)/(b.count-prev)) * 1e3
		}
		lo, prev = b.le, b.count
	}
	return lo * 1e3
}
