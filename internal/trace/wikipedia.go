// Package trace generates and loads request-rate traces. Figure 1 of the
// paper shows the total read workload of Wikipedia over four days (from
// the public AWS trace): a diurnal pattern with pronounced low-intensity
// valleys. The original trace is not redistributable here, so Generate
// synthesizes an equivalent series — a daily sinusoid with peak/trough
// structure, multiplicative noise, and optional day-to-day drift — and a
// CSV loader accepts the real trace when available. Stay-Away only depends
// on the diurnal shape (the low-utilization valleys it exploits), not on
// exact magnitudes.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
)

// Point is one trace sample.
type Point struct {
	// Hour is the sample's time offset in (possibly fractional) hours.
	Hour float64
	// Rate is the request rate in requests/second.
	Rate float64
}

// Config describes a synthetic diurnal trace.
type Config struct {
	// Days is the trace length in days.
	Days int
	// SamplesPerHour sets resolution.
	SamplesPerHour int
	// BaseRate is the mean request rate (requests/s).
	BaseRate float64
	// DailyAmplitude is the sinusoid amplitude as a fraction of BaseRate
	// (0.5 → rate swings ±50% around the base).
	DailyAmplitude float64
	// PeakHour is the hour-of-day (0–24) of maximal load.
	PeakHour float64
	// Noise is the relative standard deviation of multiplicative noise.
	Noise float64
	// Drift is a per-day relative change in base rate (weekly growth or
	// decay), 0 for a stationary trace.
	Drift float64
}

// DefaultConfig matches Fig 1's visual structure: four days, hourly
// samples, a clear diurnal swing with mid-afternoon peak.
func DefaultConfig() Config {
	return Config{
		Days:           4,
		SamplesPerHour: 1,
		BaseRate:       2600,
		DailyAmplitude: 0.45,
		PeakHour:       14,
		Noise:          0.05,
		Drift:          0,
	}
}

func (c Config) validate() error {
	if c.Days < 1 {
		return fmt.Errorf("trace: Days must be positive, got %d", c.Days)
	}
	if c.SamplesPerHour < 1 {
		return fmt.Errorf("trace: SamplesPerHour must be positive, got %d", c.SamplesPerHour)
	}
	if c.BaseRate <= 0 {
		return fmt.Errorf("trace: BaseRate must be positive, got %v", c.BaseRate)
	}
	if c.DailyAmplitude < 0 || c.DailyAmplitude > 1 {
		return fmt.Errorf("trace: DailyAmplitude must be in [0,1], got %v", c.DailyAmplitude)
	}
	if c.Noise < 0 {
		return fmt.Errorf("trace: Noise must be non-negative, got %v", c.Noise)
	}
	return nil
}

// Generate synthesizes the trace. The result always has
// Days × 24 × SamplesPerHour points and is strictly positive.
func Generate(cfg Config, rng *rand.Rand) ([]Point, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("trace: nil RNG")
	}
	n := cfg.Days * 24 * cfg.SamplesPerHour
	out := make([]Point, n)
	step := 1.0 / float64(cfg.SamplesPerHour)
	for i := 0; i < n; i++ {
		h := float64(i) * step
		day := h / 24
		base := cfg.BaseRate * math.Pow(1+cfg.Drift, day)
		phase := 2 * math.Pi * (math.Mod(h, 24) - cfg.PeakHour) / 24
		rate := base * (1 + cfg.DailyAmplitude*math.Cos(phase))
		rate *= 1 + cfg.Noise*rng.NormFloat64()
		if rate < 1 {
			rate = 1
		}
		out[i] = Point{Hour: h, Rate: rate}
	}
	return out, nil
}

// Normalize maps a trace's rates into [0,1] intensities (min→0, max→1);
// the apps package drives workload intensity with these. A constant trace
// normalizes to all 1s.
func Normalize(points []Point) []float64 {
	if len(points) == 0 {
		return nil
	}
	lo, hi := points[0].Rate, points[0].Rate
	for _, p := range points[1:] {
		lo = math.Min(lo, p.Rate)
		hi = math.Max(hi, p.Rate)
	}
	out := make([]float64, len(points))
	if hi == lo {
		for i := range out {
			out[i] = 1
		}
		return out
	}
	for i, p := range points {
		out[i] = (p.Rate - lo) / (hi - lo)
	}
	return out
}

// WriteCSV writes "hour,rate" rows with a header.
func WriteCSV(w io.Writer, points []Point) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"hour", "rate"}); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for _, p := range points {
		rec := []string{
			strconv.FormatFloat(p.Hour, 'f', -1, 64),
			strconv.FormatFloat(p.Rate, 'f', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: write row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses "hour,rate" rows, tolerating and skipping a header row.
// It is the reader side of the format WriteCSV and cmd/tracegen write,
// and the way to feed a generated trace to workload.NewTraceReplay.
//
//lint:stayaway-ignore deadcode the reader half of tracegen's output format: cmd/tracegen's test pins the round trip through it
func ReadCSV(r io.Reader) ([]Point, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 2
	var out []Point
	for line := 1; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: read csv: %w", err)
		}
		h, err1 := strconv.ParseFloat(rec[0], 64)
		rate, err2 := strconv.ParseFloat(rec[1], 64)
		if err1 != nil || err2 != nil {
			if line == 1 {
				continue // header
			}
			return nil, fmt.Errorf("trace: bad row %d: %v", line, rec)
		}
		if rate < 0 {
			return nil, fmt.Errorf("trace: negative rate at row %d", line)
		}
		out = append(out, Point{Hour: h, Rate: rate})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("trace: no data rows")
	}
	return out, nil
}
