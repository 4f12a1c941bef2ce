package eval

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
)

// Report is what every study returns: the paper-style human rendering
// (Table), a one-line result digest (Summary), and a machine-readable
// JSON artifact (MarshalJSON). Replacing the old free-form Format()
// strings, a Report always has both renderings, so evalrunner can write
// <study>.txt and <study>.json side by side for every experiment.
type Report interface {
	// Table renders the full human-readable rows/series the paper
	// reports.
	Table() string
	// Summary condenses the result to one line for logs and -list
	// style overviews.
	Summary() string
	json.Marshaler
}

// Study is one experiment of the evaluation suite. All ~16 entry points
// that used to be ad-hoc exported functions register a Study under a
// stable name; evalrunner dispatches through Lookup instead of a
// hand-written switch.
type Study interface {
	// Name is the registry key and the -exp argument.
	Name() string
	// Run executes the experiment. p is the shared experiment rig
	// (nil for standalone studies — see NeedsPlatform); cfg carries
	// fidelity, seeds and campaign knobs.
	Run(ctx context.Context, p *Platform, cfg Config) (Report, error)
}

// Config carries the cross-study experiment configuration. Construct
// with NewConfig: a Config built by hand lacks the shared
// environment-study memo and every study will re-scan.
type Config struct {
	// Fidelity selects the experiment dimensions (Quick or Full).
	Fidelity Fidelity
	// Seed reproduces every study.
	Seed int64
	// Fault carries the faultsweep-specific knobs; zero fields take
	// the faultsweep defaults (Seed and fidelity-scaled Trials are
	// filled in by the study).
	Fault FaultSweepConfig
	// Campaign parameterizes the out-of-core trace-store campaign.
	Campaign CampaignConfig
	// Workers bounds the trial fan-out of the trace-evaluation studies
	// (fig7–9, headline, ablations; the campaign's is Campaign.Workers),
	// 0 = GOMAXPROCS. Results are identical at any setting.
	Workers int

	env *envMemo
}

// NewConfig returns a Config whose environment study is computed at
// most once and shared by every study run with this Config (fig7–9,
// fig11, headline, ablations, retraining, blockage and faultsweep all
// start from the same scans).
func NewConfig(f Fidelity, seed int64) Config {
	return Config{Fidelity: f, Seed: seed, env: &envMemo{}}
}

type envMemo struct {
	once  sync.Once
	study *EnvironmentStudy
	err   error
}

// Env returns the Config's memoized environment study, running the
// scans and trace evaluations on first use.
func (c Config) Env(ctx context.Context, p *Platform) (*EnvironmentStudy, error) {
	if c.env == nil {
		return EnvironmentStudyOn(ctx, p, c.Seed, c.Fidelity, c.Workers)
	}
	c.env.once.Do(func() {
		c.env.study, c.env.err = EnvironmentStudyOn(ctx, p, c.Seed, c.Fidelity, c.Workers)
	})
	return c.env.study, c.env.err
}

// studyFunc adapts a function to the Study interface.
type studyFunc struct {
	name     string
	platform bool
	run      func(ctx context.Context, p *Platform, cfg Config) (Report, error)
}

func (s studyFunc) Name() string { return s.name }

func (s studyFunc) Run(ctx context.Context, p *Platform, cfg Config) (Report, error) {
	return s.run(ctx, p, cfg)
}

func (s studyFunc) NeedsPlatform() bool { return s.platform }

// NeedsPlatform reports whether a study wants the shared Platform.
// Standalone studies (table1, fig5/6/10, density, densify, css) build
// their own rigs or none at all, so a runner can skip the chamber
// campaign when only those are selected.
func NeedsPlatform(s Study) bool {
	if np, ok := s.(interface{ NeedsPlatform() bool }); ok {
		return np.NeedsPlatform()
	}
	return true
}

var (
	registryMu sync.Mutex
	registry   = map[string]Study{}
	studyOrder []string
)

// Register adds a study to the registry. Registering a duplicate name
// is a programming error and panics.
func Register(s Study) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[s.Name()]; dup {
		panic(fmt.Sprintf("eval: duplicate study %q", s.Name()))
	}
	registry[s.Name()] = s
	studyOrder = append(studyOrder, s.Name())
}

// register wires a function-backed study.
func register(name string, platform bool, run func(ctx context.Context, p *Platform, cfg Config) (Report, error)) {
	Register(studyFunc{name: name, platform: platform, run: run})
}

// Lookup resolves a registered study by name.
func Lookup(name string) (Study, bool) {
	registryMu.Lock()
	defer registryMu.Unlock()
	s, ok := registry[name]
	return s, ok
}

// StudyNames lists the registered studies in registration order — the
// canonical "run everything" order, matching the paper's presentation.
func StudyNames() []string {
	registryMu.Lock()
	defer registryMu.Unlock()
	return append([]string(nil), studyOrder...)
}

// sortedStudyNames returns the names alphabetically, for error messages.
func sortedStudyNames() []string {
	names := StudyNames()
	sort.Strings(names)
	return names
}

// UnknownStudyError builds the error for an unregistered -exp value,
// listing what is available.
func UnknownStudyError(name string) error {
	return fmt.Errorf("eval: unknown study %q (available: %v)", name, sortedStudyNames())
}

// The registry, in the canonical run-all order.
func init() {
	register("table1", false, func(ctx context.Context, _ *Platform, _ Config) (Report, error) {
		return Table1(), nil
	})
	register("fig5", false, func(ctx context.Context, _ *Platform, cfg Config) (Report, error) {
		azStep, repeats := 0.9, 3
		if cfg.Fidelity.Quick() {
			azStep, repeats = 4.5, 1
		}
		return Figure5(ctx, cfg.Seed, azStep, repeats)
	})
	register("fig6", false, func(ctx context.Context, _ *Platform, cfg Config) (Report, error) {
		azStep, elStep, repeats := 1.8, 3.6, 3
		if cfg.Fidelity.Quick() {
			azStep, elStep, repeats = 9, 10.8, 1
		}
		return Figure6(ctx, cfg.Seed, azStep, elStep, repeats)
	})
	register("fig7", true, func(ctx context.Context, p *Platform, cfg Config) (Report, error) {
		s, err := cfg.Env(ctx, p)
		if err != nil {
			return nil, err
		}
		return s.Figure7(), nil
	})
	register("fig8", true, func(ctx context.Context, p *Platform, cfg Config) (Report, error) {
		s, err := cfg.Env(ctx, p)
		if err != nil {
			return nil, err
		}
		return s.Figure8(), nil
	})
	register("fig9", true, func(ctx context.Context, p *Platform, cfg Config) (Report, error) {
		s, err := cfg.Env(ctx, p)
		if err != nil {
			return nil, err
		}
		return s.Figure9(), nil
	})
	register("fig10", false, func(ctx context.Context, _ *Platform, _ Config) (Report, error) {
		return Figure10(ctx)
	})
	register("fig11", true, func(ctx context.Context, p *Platform, cfg Config) (Report, error) {
		sweeps := 10
		if cfg.Fidelity.Quick() {
			sweeps = 4
		}
		return Figure11(ctx, p, 14, sweeps, studyRNG(cfg, "fig11"))
	})
	register("headline", true, func(ctx context.Context, p *Platform, cfg Config) (Report, error) {
		s, err := cfg.Env(ctx, p)
		if err != nil {
			return nil, err
		}
		return ComputeHeadline(ctx, s)
	})
	register("ablations", true, runAblationStudies)
	register("retraining", true, func(ctx context.Context, p *Platform, cfg Config) (Report, error) {
		dur := fullRetrainingDuration
		if cfg.Fidelity.Quick() {
			dur = quickRetrainingDuration
		}
		return RetrainingStudy(ctx, p, 20, dur, studyRNG(cfg, "retraining"))
	})
	register("blockage", true, func(ctx context.Context, p *Platform, cfg Config) (Report, error) {
		rounds := 30
		if cfg.Fidelity.Quick() {
			rounds = 10
		}
		return BlockageStudy(ctx, p, 24, rounds, studyRNG(cfg, "blockage"))
	})
	register("density", false, func(ctx context.Context, _ *Platform, _ Config) (Report, error) {
		return DensityStudy(ctx, 14, 5.5, nil)
	})
	register("densify", false, func(ctx context.Context, _ *Platform, cfg Config) (Report, error) {
		trials := 120
		if cfg.Fidelity.Quick() {
			trials = 30
		}
		return DensifyStudy(ctx, cfg.Seed, 14, nil, trials, studyRNG(cfg, "densify"))
	})
	register("faultsweep", true, func(ctx context.Context, p *Platform, cfg Config) (Report, error) {
		fc := cfg.Fault
		if fc.Seed == 0 {
			fc.Seed = cfg.Seed
		}
		if fc.Trials <= 0 {
			fc.Trials = 200
			if cfg.Fidelity.Quick() {
				fc.Trials = 50
			}
		}
		return FaultSweep(ctx, p, fc)
	})
	register("css", false, func(ctx context.Context, _ *Platform, cfg Config) (Report, error) {
		return RunCSS(ctx, cfg.Seed, cfg.Fidelity)
	})
	register("campaign", true, func(ctx context.Context, p *Platform, cfg Config) (Report, error) {
		cc := cfg.Campaign
		if cc.Trials <= 0 && cfg.Fidelity.Quick() {
			cc.Trials = 2000
		}
		return RunCampaign(ctx, p, cc)
	})
}
