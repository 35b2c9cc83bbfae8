package trajectory

import (
	"math"

	"repro/internal/mds"
	"repro/internal/stats"
)

// Step captures the two trajectory parameters of §3.2.3, following Marsh
// et al.'s minimal-parameter track reconstruction: the distance d between
// successive positions and the absolute angle α between the x direction
// and the step.
type Step struct {
	// Distance is the Euclidean step length d ≥ 0.
	Distance float64
	// Angle is the absolute angle α in [−π, π).
	Angle float64
}

// StepBetween computes the step from one mapped state to the next. A
// zero-length step has angle 0 by convention.
func StepBetween(from, to mds.Coord) Step {
	d := from.Dist(to)
	if d == 0 {
		return Step{}
	}
	return Step{Distance: d, Angle: stats.NormalizeAngle(from.Angle(to))}
}

// Destination returns the point reached by taking the step from p.
func (s Step) Destination(p mds.Coord) mds.Coord {
	return mds.Coord{
		X: p.X + s.Distance*math.Cos(s.Angle),
		Y: p.Y + s.Distance*math.Sin(s.Angle),
	}
}

// TurningAngles returns the signed change of direction between successive
// steps, ignoring zero-length steps (which carry no direction). Turning
// angles near ±π indicate the oscillating trajectories the paper observes
// for co-located execution.
func TurningAngles(steps []Step) []float64 {
	var dirs []float64
	for _, s := range steps {
		if s.Distance > 0 {
			dirs = append(dirs, s.Angle)
		}
	}
	if len(dirs) < 2 {
		return nil
	}
	out := make([]float64, len(dirs)-1)
	for i := 1; i < len(dirs); i++ {
		out[i-1] = stats.AngleDiff(dirs[i-1], dirs[i])
	}
	return out
}
