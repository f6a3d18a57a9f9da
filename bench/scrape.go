package bench

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// scrape is one /metrics exposition: series (name plus label set, as
// printed) → value.
type scrape map[string]float64

// scrapeMetrics fetches and parses a server's Prometheus text
// exposition.
func scrapeMetrics(base string) (scrape, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	out := scrape{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// get returns one series' value (0 when absent).
func (s scrape) get(series string) float64 { return s[series] }

// sum adds every series of a family, labelled or not.
func (s scrape) sum(family string) float64 {
	total := s[family]
	for k, v := range s {
		if strings.HasPrefix(k, family+"{") {
			total += v
		}
	}
	return total
}

// minus returns the per-series delta s − earlier.
func (s scrape) minus(earlier scrape) scrape {
	out := make(scrape, len(s))
	for k, v := range s {
		out[k] = v - earlier[k]
	}
	return out
}
