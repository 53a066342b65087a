package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"gsight/internal/metrics"
	"gsight/internal/ml"
	"gsight/internal/par"
	"gsight/internal/resources"
	"gsight/internal/telemetry"
)

// QoSKind identifies the predicted quality-of-service metric.
type QoSKind int

const (
	// IPCQoS predicts a workload's aggregate instructions-per-cycle.
	IPCQoS QoSKind = iota
	// TailLatencyQoS predicts the end-to-end 99th-percentile latency (ms).
	TailLatencyQoS
	// JCTQoS predicts an SC job's completion time (s).
	JCTQoS
	numQoSKinds
)

// String names the QoS kind.
func (k QoSKind) String() string {
	switch k {
	case IPCQoS:
		return "ipc"
	case TailLatencyQoS:
		return "p99"
	case JCTQoS:
		return "jct"
	}
	return fmt.Sprintf("QoSKind(%d)", int(k))
}

// ModelFactory builds a fresh incremental model; the default produces
// the paper's IRFR. Swapping factories yields the IKNN/ILR/ISVR/IMLP
// comparison predictors of Figures 5 and 9.
type ModelFactory func(seed uint64) ml.Incremental

// IRFRFactory builds the incremental random forest the paper selects.
// MTry 96 trades a few tenths of a percent of accuracy for roughly
// half the training time on the ~500-active-feature colocation codes.
func IRFRFactory(seed uint64) ml.Incremental {
	return ml.NewForest(ml.ForestConfig{Trees: 40, Seed: seed, Tree: ml.TreeConfig{MTry: 96}})
}

// Config parameterizes a Predictor.
type Config struct {
	Coder Coder
	// Factory builds the per-QoS models; nil means IRFRFactory.
	Factory ModelFactory
	// UpdateEvery is the observation count per incremental model
	// update (the paper updates in small batches online); <=0 means 100.
	UpdateEvery int
	Seed        uint64
	// AbsoluteTargets disables the solo-reference normalization and
	// learns raw QoS values, as the paper's model does. The default
	// (normalized) predictor learns degradation ratios, which transfer
	// across workloads of different absolute QoS; the absolute mode
	// reproduces the paper's Figure 13 behaviour, where a regime shift
	// in absolute IPC costs 43.9% error.
	AbsoluteTargets bool
	// InstallLag decides where a flush's trees grow and when they
	// install, never what a forest learns: every training begins on the
	// caller (the batch absorbed, its randomness drawn), grows its trees
	// and installs them with tier-0's ingest, the sample count and the
	// predictor_update event. At > 0 a flush's trees grow on a
	// background goroutine and install at the InstallLag-th Tick after
	// the flush's own, the caller blocking only if training has not
	// finished by then; a flush while another is in flight installs that
	// one first. At <= 0 (every caller but the serving daemon), for
	// TrainObservations and for a batch past the forest's window, both
	// happen on the caller, at once.
	InstallLag int
}

// Observation is one labeled colocation: the workload set, which member
// is the prediction target, and its measured QoS.
type Observation struct {
	Target int
	Inputs []WorkloadInput
	Label  float64
}

// QoSPredictor is the interface shared by Gsight and the comparison
// predictors (ESP, Pythia): offline bootstrap, online prediction —
// one query or a batch — and incremental feedback. Predictor is its one
// implementation.
type QoSPredictor interface {
	TrainObservations(kind QoSKind, obs []Observation) error
	Predict(kind QoSKind, target int, ws []WorkloadInput) (float64, error)
	PredictBatchInto(kind QoSKind, queries []Query, out []float64) error
	Observe(kind QoSKind, target int, ws []WorkloadInput, actual float64) error
	Flush(kind QoSKind) error
	Name() string
}

// encoder writes the feature row a predictor's models read for
// ws[target] into dst, which has Dim() entries, overwriting all of it.
// The Coder is Gsight's; ESP and Pythia have their own.
type encoder interface {
	Dim() int
	EncodeInto(dst []float64, target int, ws []WorkloadInput) error
}

// Predictor is the Gsight performance predictor: solo-run profiles plus
// the partial interference code in, QoS out, improving continuously as
// observations stream in (Figure 6's loop). With another encoder or
// model it is one of the comparison predictors of Figures 5 and 9.
type Predictor struct {
	cfg   Config
	name  string
	coder Coder
	enc   encoder // the rows the models read; the coder for Gsight
	// models holds each kind's learner. Tail latency and JCT learn
	// log(y) (logKind); a forest is the *ml.Forest itself.
	models  [numQoSKinds]ml.Incremental
	pending [numQoSKinds]ml.Dataset
	trained [numQoSKinds]bool
	seen    [numQoSKinds]int
	// xPool recycles Dim()-sized encode buffers so the prediction hot
	// path allocates nothing. Buffers never escape: the model reads x
	// during Predict and must not retain it.
	xPool sync.Pool

	// tier0 is the cheap candidate-pruning scorer, nil until Tier0
	// attaches it. It then rides the IPC training stream: every batch
	// the forest ingests, it ingests too.
	tier0 *Tier0

	// ticks counts Tick calls (the serving daemon's applied records);
	// train is the flush growing beside the caller, installed at
	// train.due.
	ticks uint64
	train *training

	ins  telemetry.PredictorInstruments
	lins LearnerInstruments
	ev   telemetry.PredictorUpdate // reusable training event
}

// training is one batch between its begin and its install: a forest's
// staged update, or no update for a model that is not a forest, which
// learned the batch before its install.
type training struct {
	kind QoSKind
	due  uint64 // the Tick that installs it, when it grows beside the caller
	upd  *ml.ForestUpdate
	// X and Y are the batch as the model learns it. Y is read for its
	// length, and as tier-0's labels on the IPC kind, which learns
	// unlogged labels.
	X [][]float64
	Y []float64
}

// LearnerInstruments time the background learner (Config.InstallLag >
// 0). The zero value records nothing.
type LearnerInstruments struct {
	TrainSeconds       *telemetry.Histogram // Run, on the background goroutine
	InstallWaitSeconds *telemetry.Histogram // Tick blocked on an unfinished Run
	InFlight           *telemetry.Gauge     // 1 from a flush to its install
}

// InstrumentLearner attaches the background learner's instruments.
func (p *Predictor) InstrumentLearner(li LearnerInstruments) { p.lins = li }

// Instrument attaches a telemetry sink to the predictor and its models.
// Instrumenting with a nil sink leaves every output bit-identical.
func (p *Predictor) Instrument(s *telemetry.Sink) {
	p.ins = s.Predictor()
	fi := s.Forest()
	for _, m := range p.models {
		if f, ok := m.(*ml.Forest); ok {
			f.Instrument(fi)
		}
	}
}

// trainEvent emits a predictor_update decision event and refreshes the
// training gauges after a fit/update step of `batch` samples.
func (p *Predictor) trainEvent(kind QoSKind, phase string, batch int) {
	p.ins.Updates.Inc()
	p.ins.SamplesSeen.SetInt(p.seen[kind])
	p.ins.PendingWindow.SetInt(p.pending[kind].Len())
	if p.ins.Decisions != nil {
		p.ev = telemetry.PredictorUpdate{
			Predictor:   p.Name(),
			Kind:        kind.String(),
			Phase:       phase,
			Batch:       batch,
			SamplesSeen: p.seen[kind],
		}
		p.ins.Decisions.PredictorUpdate(&p.ev)
	}
}

// NewPredictor returns an untrained predictor.
func NewPredictor(cfg Config) *Predictor {
	if cfg.Factory == nil {
		cfg.Factory = IRFRFactory
	}
	if cfg.Coder.NumServers == 0 {
		cfg.Coder = DefaultCoder()
	}
	return newPredictor(cfg, "Gsight", cfg.Coder, func(k QoSKind) ml.Incremental {
		return cfg.Factory(cfg.Seed + uint64(k)*7919)
	})
}

// newPredictor builds a predictor named name over enc's rows, with
// model(k) as kind k's learner; cfg.Factory and cfg.Seed are not read.
func newPredictor(cfg Config, name string, enc encoder, model func(QoSKind) ml.Incremental) *Predictor {
	if cfg.UpdateEvery <= 0 {
		cfg.UpdateEvery = 100
	}
	p := &Predictor{cfg: cfg, name: name, coder: cfg.Coder, enc: enc}
	p.xPool.New = func() interface{} {
		buf := make([]float64, p.enc.Dim())
		return &buf
	}
	for k := range p.models {
		p.models[k] = model(QoSKind(k))
	}
	return p
}

// logKind reports whether kind's models learn log(max(y, logFloor))
// and predict exp of their output. Tail latency and JCT span orders of
// magnitude across interference scenarios; in log space squared loss
// becomes (approximately) the paper's relative error metric.
func logKind(kind QoSKind) bool { return kind == TailLatencyQoS || kind == JCTQoS }

const logFloor = 1e-9

// logLabels returns log(max(y, logFloor)) of every label, in a new
// slice.
func logLabels(y []float64) []float64 {
	out := make([]float64, len(y))
	for i, v := range y {
		out[i] = math.Log(max(v, logFloor))
	}
	return out
}

// encode returns a fresh feature row for ws[target].
func (p *Predictor) encode(target int, ws []WorkloadInput) ([]float64, error) {
	x := make([]float64, p.enc.Dim())
	if err := p.enc.EncodeInto(x, target, ws); err != nil {
		return nil, err
	}
	return x, nil
}

// Coder exposes the feature layout (for importance mapping).
func (p *Predictor) Coder() Coder { return p.coder }

// Tier0 returns the tier-0 candidate scorer; schedulers attach it to
// enable top-K candidate pruning. The first call builds it from the IPC
// forest's installed window and every later IPC batch feeds it, so it
// holds what it would had it ridden the stream from the start, bit for
// bit, as long as the window has evicted nothing. Later calls return
// the same scorer. It is never checkpointed, and nil for a predictor
// whose rows are not the interference code (ESP, Pythia).
func (p *Predictor) Tier0() *Tier0 {
	if p.tier0 == nil && p.enc == encoder(p.coder) {
		p.tier0 = newTier0(p.coder)
		if p.trained[IPCQoS] {
			p.tier0.absorb(p.tier0Rows())
		}
	}
	return p.tier0
}

// tier0Rows is the IPC forest's installed window, oldest first: the
// window without the newest rows of an IPC training in flight, which
// the scorer ingests at its install. It is empty when the IPC model is
// not a forest.
func (p *Predictor) tier0Rows() ([][]float64, []float64) {
	f, ok := p.models[IPCQoS].(*ml.Forest)
	if !ok {
		return nil, nil
	}
	X, Y := f.Window()
	if t := p.train; t != nil && t.kind == IPCQoS {
		n := len(Y) - len(t.Y)
		X, Y = X[:n], Y[:n]
	}
	return X, Y
}

// Name identifies the predictor in experiment reports.
func (p *Predictor) Name() string { return p.name }

// refFor returns the solo-run reference the model normalizes its target
// by: the learner predicts degradation relative to the solo behaviour
// already present in the input profiles, which is what lets one model
// generalize across workloads of very different absolute QoS (the
// Figure 5 transfer to an unseen workload). IPC normalizes by the
// CPU-demand-weighted solo IPC, JCT by the solo duration; tail latency
// has no solo analogue in the profiles and stays absolute (learning it
// in log space conditions its scale instead).
func (p *Predictor) refFor(kind QoSKind, target int, ws []WorkloadInput) float64 {
	if p.cfg.AbsoluteTargets {
		return 1
	}
	switch kind {
	case IPCQoS:
		w := &ws[target]
		var sum, wsum float64
		for f := range w.Profiles {
			p := &w.Profiles[f]
			cw := p.Demand[resources.CPU]
			if cw <= 0 {
				cw = 1e-6
			}
			sum += p.Metrics[metrics.IPC] * cw
			wsum += cw
		}
		if wsum > 0 && sum > 0 {
			return sum / wsum
		}
	case JCTQoS:
		if ws[target].LifetimeS > 0 {
			return ws[target].LifetimeS
		}
	}
	return 1
}

// ErrTrained is returned by TrainObservations for a kind that has
// already trained: a trained kind learns further batches through
// Observe and Flush.
var ErrTrained = errors.New("core: model already trained")

// TrainObservations encodes labeled colocations and trains kind's model
// on them at once — the offline bootstrap phase over raw observations
// (steps ❷-❸ in Figure 6). It is a kind's first training, through the
// same staged update and install as every flush; on a kind that has
// trained it returns ErrTrained.
func (p *Predictor) TrainObservations(kind QoSKind, obs []Observation) error {
	if err := p.settle(); err != nil {
		return err
	}
	if p.trained[kind] {
		return fmt.Errorf("%w: %v", ErrTrained, kind)
	}
	span := telemetry.StartSpan(p.ins.UpdateSeconds)
	defer span.End()
	// Rows are encoded on the pool, each into its own slot.
	X, Y := make([][]float64, len(obs)), make([]float64, len(obs))
	if err := par.For(context.Background(), runtime.GOMAXPROCS(0), len(obs), func(_, i int) error {
		o := &obs[i]
		x, err := p.encode(o.Target, o.Inputs)
		if err != nil {
			return err
		}
		X[i], Y[i] = x, o.Label/p.refFor(kind, o.Target, o.Inputs)
		return nil
	}); err != nil {
		return err
	}
	return p.learn(kind, X, Y, 0)
}

// ErrNotTrained marks predictions requested from a model that has not
// been fitted for the QoS kind. Schedulers and the platform treat it
// as a signal to degrade to a capacity-based policy, not to retry.
var ErrNotTrained = errors.New("core: model not trained")

// Predict estimates ws[target]'s QoS under the colocation. Calling it
// for an untrained kind returns an error wrapping ErrNotTrained: the
// paper never predicts before the initial dataset exists.
func (p *Predictor) Predict(kind QoSKind, target int, ws []WorkloadInput) (float64, error) {
	if !p.trained[kind] {
		return 0, fmt.Errorf("%w: %v", ErrNotTrained, kind)
	}
	// Clock reads are gated on Enabled so the uninstrumented hot path
	// never touches the time source.
	var t0 time.Time
	if p.ins.Enabled() {
		t0 = time.Now()
	}
	xp := p.xPool.Get().(*[]float64)
	x := *xp
	if err := p.enc.EncodeInto(x, target, ws); err != nil {
		p.xPool.Put(xp)
		return 0, err
	}
	if p.ins.Enabled() {
		t1 := time.Now()
		p.ins.EncodeSeconds.Observe(t1.Sub(t0).Seconds())
		t0 = t1
	}
	v := p.models[kind].Predict(x)
	p.xPool.Put(xp)
	if logKind(kind) {
		v = math.Exp(v)
	}
	if p.ins.Enabled() {
		p.ins.InferSeconds.Observe(time.Since(t0).Seconds())
		p.ins.Predicts.Inc()
	}
	return v * p.refFor(kind, target, ws), nil
}

// Observe feeds one post-deployment measurement back into the model
// (steps ❾-❿ in Figure 6). Updates are applied in batches of
// UpdateEvery samples; Flush forces an early update.
func (p *Predictor) Observe(kind QoSKind, target int, ws []WorkloadInput, actual float64) error {
	x, err := p.encode(target, ws)
	if err != nil {
		return err
	}
	p.pending[kind].Append(x, actual/p.refFor(kind, target, ws))
	p.ins.Observations.Inc()
	p.ins.PendingWindow.SetInt(p.pending[kind].Len())
	if p.pending[kind].Len() >= p.cfg.UpdateEvery {
		return p.Flush(kind)
	}
	return nil
}

// Flush applies any buffered observations for kind: at once, or with
// Config.InstallLag, at the install point of a background training.
func (p *Predictor) Flush(kind QoSKind) error {
	ds := &p.pending[kind]
	if ds.Len() == 0 {
		return nil
	}
	if err := p.settle(); err != nil {
		return err
	}
	span := telemetry.StartSpan(p.ins.UpdateSeconds)
	defer span.End()
	X, Y := ds.X, ds.Y
	if p.cfg.InstallLag > 0 {
		// A training beside the caller keeps its batch until its
		// install, while the pending buffer refills.
		X, Y = slices.Clone(X), slices.Clone(Y)
	}
	// The rows are the model's now. The buffer keeps its capacity: the
	// update cadence makes this a steady-state hot path.
	ds.X, ds.Y = ds.X[:0], ds.Y[:0]
	return p.learn(kind, X, Y, p.cfg.InstallLag)
}

// learn is the one way kind's model learns the batch (X, Y), on log
// labels for a logKind. A forest begins its staged update here on the
// caller; at lag > 0, for a batch the window can carry, the trees grow
// on a background goroutine and install at the lag-th Tick after this
// one, and otherwise they grow and install here, at once. A model that
// is not a forest (the comparison models of Figures 5 and 9) fits or
// updates in place instead: only forests are checkpointed or trained
// beside the caller.
func (p *Predictor) learn(kind QoSKind, X [][]float64, Y []float64, lag int) error {
	if logKind(kind) {
		Y = logLabels(Y)
	}
	m := p.models[kind]
	f, ok := m.(*ml.Forest)
	if !ok {
		apply := m.Update
		if !p.trained[kind] {
			apply = m.Fit
		}
		if err := apply(X, Y); err != nil {
			return err
		}
		return p.install(&training{kind: kind, X: X, Y: Y})
	}
	u, err := f.BeginUpdate(X, Y)
	if err != nil {
		return err
	}
	t := &training{kind: kind, due: p.ticks + 1 + uint64(lag), upd: u, X: X, Y: Y}
	if lag <= 0 || !u.InWindow() {
		// A batch past the window's capacity cannot be carried by a
		// checkpoint; it trains at once.
		u.Run(0)
		return p.install(t)
	}
	p.train = t
	p.lins.InFlight.Set(1)
	go func() {
		span := telemetry.StartSpan(p.lins.TrainSeconds)
		u.Run(max(1, runtime.GOMAXPROCS(0)-1)) // one core stays with the caller
		span.End()
	}()
	return nil
}

// install ends training t on the caller: a forest's FinishUpdate —
// after waiting for Run, timed as the install wait when the trees grew
// beside the caller — then tier-0's ingest of the batch, the sample
// count and the predictor_update event, phase "train" for a kind's first
// batch and "update" after.
func (p *Predictor) install(t *training) error {
	if p.train == t {
		p.train = nil
		p.lins.InFlight.Set(0)
		span := telemetry.StartSpan(p.lins.InstallWaitSeconds)
		t.upd.Wait()
		span.End()
	}
	if t.upd != nil {
		if err := p.models[t.kind].(*ml.Forest).FinishUpdate(t.upd); err != nil {
			return err
		}
	}
	if t.kind == IPCQoS && p.tier0 != nil {
		p.tier0.absorb(t.X, t.Y)
	}
	phase := "update"
	if !p.trained[t.kind] {
		phase = "train"
	}
	p.trained[t.kind] = true
	p.seen[t.kind] += len(t.Y)
	if p.ins.Enabled() {
		p.trainEvent(t.kind, phase, len(t.Y))
	}
	return nil
}

// settle installs the training in flight, if any, now.
func (p *Predictor) settle() error {
	if p.train == nil {
		return nil
	}
	return p.install(p.train)
}

// Tick advances the predictor's record clock by one: the serving daemon
// calls it once per applied record, live and in WAL replay alike, so a
// training installs at the same record in both. It returns the install's
// error, if this Tick installed one.
func (p *Predictor) Tick() error {
	p.ticks++
	if p.train != nil && p.ticks >= p.train.due {
		return p.install(p.train)
	}
	return nil
}

// Ticks returns the record clock: how many times Tick was called, as
// carried by checkpoints.
func (p *Predictor) Ticks() uint64 { return p.ticks }

// InstallDue reports the Tick at which the training in flight installs.
func (p *Predictor) InstallDue() (uint64, bool) {
	if p.train == nil {
		return 0, false
	}
	return p.train.due, true
}

// SamplesSeen reports how many observations have been folded into the
// model for kind (the x-axis of Figure 10).
func (p *Predictor) SamplesSeen(kind QoSKind) int { return p.seen[kind] }

// MetricImportance aggregates the IRFR impurity importances over every
// U-matrix position of each selected metric, yielding the 16-bar
// Figure 8 profile. It returns nil when the model is not a forest, not
// yet trained or not trained on the interference code.
func (p *Predictor) MetricImportance(kind QoSKind) []float64 {
	forest, ok := p.models[kind].(*ml.Forest)
	if !ok || !p.trained[kind] || p.enc != encoder(p.coder) {
		return nil
	}
	imp := forest.Importance()
	out := make([]float64, metrics.NumSelected)
	for slot := 0; slot <= p.coder.MaxWorkloads; slot++ { // incl. aggregate block
		for server := 0; server < p.coder.NumServers; server++ {
			for col := 0; col < metrics.NumSelected; col++ {
				idx := p.coder.UFeatureIndex(slot, server, col)
				if idx < len(imp) {
					out[col] += imp[idx]
				}
			}
		}
	}
	total := 0.0
	for _, v := range out {
		total += v
	}
	if total > 0 {
		for i := range out {
			out[i] /= total
		}
	}
	return out
}
