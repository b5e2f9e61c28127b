package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minP90Jobs is the fewest jobs a run must hold before job_p90_ms is
// reported: the 90th percentile then has at least ten samples beyond it.
const minP90Jobs = 100

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs, which
// need not be sorted. It returns NaN for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	rank = max(1, min(rank, len(s)))
	return s[rank-1]
}

// p90 returns the 90th percentile of xs and whether the sample is large
// enough (minP90Jobs) to report it.
func p90(xs []float64) (float64, bool) {
	if len(xs) < minP90Jobs {
		return 0, false
	}
	return percentile(xs, 0.9), true
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// perUnit normalises total by a work count: the total per `per` units of
// work, e.g. perUnit(cpuMS, events, 1e6) is CPU milliseconds per million
// events. A zero count yields NaN rather than a misleading zero.
func perUnit(total float64, count uint64, per float64) float64 {
	if count == 0 {
		return math.NaN()
	}
	return total * per / float64(count)
}

// nsPerEvent is a duration spread over the events it processed.
func nsPerEvent(d time.Duration, events uint64) float64 {
	return perUnit(float64(d.Nanoseconds()), events, 1)
}

// promSample is a parsed /metrics dump: series name to value.
type promSample map[string]float64

// parseMetrics reads the plain-text /metrics dump: one "series value" pair
// per line, where a labelled series keeps its labels as part of the name
// (dpgd_stage_total_seconds_bucket{le="0.5"}). Blank lines and # comments
// are skipped; any other malformed line is an error.
func parseMetrics(r io.Reader) (promSample, error) {
	out := make(promSample)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: malformed value in %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// add folds another sample into m, series by series (summing the final
// dumps of several servers).
func (m promSample) add(o promSample) {
	for k, v := range o {
		m[k] += v
	}
}

// sub returns m minus an earlier sample of the same server: the counter and
// histogram increments between the two scrapes.
func (m promSample) sub(before promSample) promSample {
	out := make(promSample, len(m))
	for k, v := range m {
		out[k] = v - before[k]
	}
	return out
}

// histMeanMS is a histogram's mean observation in milliseconds, taken as
// its _sum (seconds) over its _count. It is NaN when nothing was observed.
func (m promSample) histMeanMS(hist string) float64 {
	n := m[hist+"_count"]
	if n == 0 {
		return math.NaN()
	}
	return m[hist+"_sum"] * 1e3 / n
}

// frac is num over den, NaN when den is zero.
func frac(num, den float64) float64 {
	if den == 0 {
		return math.NaN()
	}
	return num / den
}
