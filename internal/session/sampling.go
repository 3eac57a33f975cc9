package session

import (
	"context"

	"dvi/internal/runner"
	"dvi/internal/sample"
	"dvi/internal/workload"
)

// WithSampling switches Simulate from exact detailed simulation to
// statistical sampling by setting the job's Sampling: one fast
// functional pass captures checkpoints, the selected intervals are
// simulated in detail as parallel jobs, and the result is an estimate
// with a confidence interval. interval and warmup are in original
// instructions (0 picks the package defaults); targetCI, when positive,
// makes the sampler densify the measured set — halving the selection
// period round by round — until the estimate's relative CI half-width
// reaches the target.
func WithSampling(interval, warmup uint64, targetCI float64) RunOption {
	return WithSamplingOptions(sample.Options{
		Interval: interval,
		Warmup:   warmup,
		TargetCI: targetCI,
	})
}

// WithSamplingOptions is WithSampling with full control of the plan
// (period, seed).
func WithSamplingOptions(opt sample.Options) RunOption {
	return func(rs *runSettings) { rs.sampling = &opt }
}

// SimulateSampled runs a workload through the statistical sampler and
// returns the full estimate (Simulate with WithSampling returns only the
// rendered machine stats). Sampling options come from WithSampling /
// WithSamplingOptions, or the defaults when absent.
func (s *Session) SimulateSampled(ctx context.Context, w workload.Spec, opts ...RunOption) (sample.Estimate, error) {
	opts = append([]RunOption{WithSamplingOptions(sample.Options{})}, opts...)
	res, err := s.one(ctx, runner.Timing, w, opts)
	if err != nil {
		return sample.Estimate{}, err
	}
	return *res.Sampled, nil
}
