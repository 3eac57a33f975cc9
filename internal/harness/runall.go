package harness

import (
	"context"
	"fmt"
	"io"

	"dvi/internal/runner"
	"dvi/internal/sample"
	"dvi/internal/session"
)

// NewSession builds a session sized by opt.Workers with an optional
// progress observer. One session should serve a whole report so every
// figure shares its memoized build cache and warm simulator pools.
func NewSession(opt Options, progress runner.ProgressFunc) *session.Session {
	return session.New(session.WithWorkers(opt.Workers), session.WithProgress(progress))
}

// CollectResults resolves ids (plus transitive Needs), submits every
// required figure's job grid through sess as one batch, and returns the
// results keyed by figure ID. Grids are concatenated in registry order,
// so the batch — and therefore any report rendered from it — is
// identical at any worker count.
func CollectResults(ctx context.Context, sess *session.Session, opt Options, ids []string) (ResultSet, error) {
	need := map[string]bool{}
	var add func(id string) error
	add = func(id string) error {
		if need[id] {
			return nil
		}
		fig, ok := FigureByID(id)
		if !ok {
			return fmt.Errorf("harness: unknown figure %q (have %v)", id, FigureIDs())
		}
		need[id] = true
		for _, d := range fig.Needs {
			if err := add(d); err != nil {
				return err
			}
		}
		return nil
	}
	for _, id := range ids {
		if err := add(id); err != nil {
			return nil, err
		}
	}

	type span struct {
		id     string
		lo, hi int
	}
	var (
		jobs  []runner.Job
		spans []span
	)
	for _, fig := range Figures() {
		if !need[fig.ID] || fig.Jobs == nil {
			continue
		}
		js := fig.Jobs(opt)
		spans = append(spans, span{fig.ID, len(jobs), len(jobs) + len(js)})
		jobs = append(jobs, js...)
	}
	var (
		results []runner.Result
		err     error
	)
	if opt.Sampling != nil {
		results, err = collectSampled(ctx, sess, jobs, opt.Sampling)
	} else {
		results, err = sess.Collect(ctx, jobs)
	}
	if err != nil {
		return nil, err
	}
	rs := ResultSet{}
	for _, sp := range spans {
		rs[sp.id] = results[sp.lo:sp.hi]
	}
	return rs, nil
}

// collectSampled runs a grid with every single-context timing job
// sampled under so: those one at a time, then everything else as one
// batch, in submission order. Multi-context timing jobs stay exact:
// checkpointed sampling is single-context. The engine already measures
// sampled jobs one at a time, each fanning its intervals out across the
// whole pool, so a batch of them gains no speed; yet submitting the grid
// as one batch, or as a sampled batch and an exact one, ran the sampled
// report at a 9–15% higher peak heap on a 2-vCPU host, with identical
// results.
func collectSampled(ctx context.Context, sess *session.Session, jobs []runner.Job, so *sample.Options) ([]runner.Result, error) {
	results := make([]runner.Result, len(jobs))
	var rest []runner.Job
	var restIdx []int
	for i, j := range jobs {
		if j.Kind != runner.Timing || j.Machine.ContextCount() != 1 {
			rest = append(rest, j)
			restIdx = append(restIdx, i)
			continue
		}
		j.Sampling = so
		out, err := sess.Collect(ctx, []runner.Job{j})
		if err != nil {
			return nil, err
		}
		results[i] = out[0]
		results[i].Index = i
	}
	out, err := sess.Collect(ctx, rest)
	if err != nil {
		return nil, err
	}
	for k, res := range out {
		res.Index = restIdx[k]
		results[restIdx[k]] = res
	}
	return results, nil
}

// RunFigures runs the selected figures through one shared session and
// writes their tables to w in registry order (selection order does not
// affect the report). Any job or render error aborts the whole run.
func RunFigures(ctx context.Context, sess *session.Session, opt Options, ids []string, w io.Writer) error {
	selected := map[string]bool{}
	for _, id := range ids {
		if _, ok := FigureByID(id); !ok {
			return fmt.Errorf("harness: unknown figure %q (have %v)", id, FigureIDs())
		}
		selected[id] = true
	}
	rs, err := CollectResults(ctx, sess, opt, ids)
	if err != nil {
		return err
	}
	for _, fig := range Figures() {
		if !selected[fig.ID] {
			continue
		}
		tables, err := fig.Render(opt, rs)
		if err != nil {
			return fmt.Errorf("%s: %w", fig.ID, err)
		}
		for _, t := range tables {
			fmt.Fprintln(w, t)
		}
	}
	return nil
}

// RunAll regenerates the nine paper figures and writes them to w, using
// opt.Workers concurrent workers over one shared build cache. The report
// bytes are identical at any worker count.
func RunAll(opt Options, w io.Writer) error {
	return RunFigures(context.Background(), NewSession(opt, nil), opt, ReportIDs(), w)
}

// runOne executes a single figure's grid on a fresh session and renders
// its table — the implementation behind the exported per-figure
// convenience functions.
func runOne(id string, opt Options, build func(Options, []runner.Result) (Table, error)) (Table, error) {
	rs, err := CollectResults(context.Background(), NewSession(opt, nil), opt, []string{id})
	if err != nil {
		return Table{}, err
	}
	return build(opt, rs[id])
}
