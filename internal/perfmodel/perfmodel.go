// Package perfmodel is the simulated testbed: a deterministic
// performance model of the paper's 8-node cluster (Table 4) that plays
// the role the physical OpenFaaS deployment played for the authors. It
// produces the observables the paper measures — per-function IPC, local
// and end-to-end tail latency for LS workloads, and job completion time
// for SC workloads — as a nonlinear function of where functions are
// placed (spatial overlap), when they run (temporal overlap, phases),
// and how loaded they are.
//
// The model deliberately reproduces the paper's six observations:
// volatility (archetype-dependent contention), spatial variation
// (per-socket/per-server contention domains and critical-path
// structure), temporal variation (phased SC co-execution), hotspot
// propagation and restoring propagation (throughput throttling along
// call paths, a shared gateway, and a closed request loop), and
// predictability (all behaviour is a deterministic function of the
// profiles and overlap codes that Gsight sees).
package perfmodel

import (
	"fmt"
	"math"
	"sync"

	"gsight/internal/resources"
	"gsight/internal/workload"
)

// Deployment places one workload onto the testbed.
type Deployment struct {
	W *workload.Workload
	// Placement[f] is the server index hosting function f's instances.
	Placement []int
	// Socket[f] is the CPU socket hosting function f on its server;
	// -1 spreads instances round-robin over sockets. CPU, LLC and
	// memory bandwidth contend per socket; memory capacity, network
	// and disk contend per server.
	Socket []int
	// Replicas[f] is the instance count of function f (nil means the
	// workload default: w.Instances for SC/BG, 1 for LS).
	Replicas []int
	// QPS is the external request load of an LS workload.
	QPS float64
	// StartDelayS delays an SC/BG job's start relative to scenario
	// time zero (the paper's temporal overlap code D).
	StartDelayS float64
	// Protected assigns the deployment to the protected resource
	// partition where one is configured (Intel CAT/MBA-style isolation
	// actuated by the paper's Gsight agents, §5.1). Unprotected
	// deployments share the remainder.
	Protected bool
	// ColdStartFrac is the fraction of invocations that hit a cold
	// start (§5.2): each adds the function's startup latency to its
	// service time and executes with cold-cache efficiency.
	ColdStartFrac float64
}

// DefaultLSRho is the per-instance utilization target used when sizing
// LS replica counts for a workload's maximum request load: enough
// instances that each runs at ~65% busy at MaxQPS under solo conditions.
const DefaultLSRho = 0.65

// LSReplicasFor returns the replica count that keeps function f of w at
// DefaultLSRho utilization while serving qps requests per second solo.
func LSReplicasFor(w *workload.Workload, f int, qps float64) int {
	need := qps * w.Functions[f].BaseServiceMs / 1000 / DefaultLSRho
	n := int(math.Ceil(need))
	if n < 1 {
		n = 1
	}
	return n
}

// LoadFactor returns the deployment's per-instance load relative to the
// profiling reference (each instance at ~DefaultLSRho busy). With
// replicas autoscaled to the offered QPS the factor sits near 1; with
// replicas pinned at MaxQPS sizing it equals QPS/MaxQPS. The predictor
// scales the rate-like profile metrics by this factor.
func LoadFactor(d *Deployment) float64 {
	w := d.W
	if w.Class != workload.LS || w.MaxQPS <= 0 {
		return 1
	}
	frac := 0.0
	n := 0
	for f := range w.Functions {
		atMax := LSReplicasFor(w, f, w.MaxQPS)
		if atMax <= 0 {
			continue
		}
		frac += float64(d.Replicas[f]) / float64(atMax)
		n++
	}
	if n == 0 || frac == 0 {
		return 1
	}
	frac /= float64(n)
	lf := (d.QPS / w.MaxQPS) / frac
	if lf < 0 {
		lf = 0
	}
	if lf > 2 {
		lf = 2
	}
	return lf
}

// NewDeployment returns a deployment of w with every function on
// server 0, socket 0 — the maximal-overlap default the paper's
// colocation studies use. LS deployments are sized for the workload's
// MaxQPS and offered half that load; SC/BG deployments get the
// workload's instance count.
func NewDeployment(w *workload.Workload) *Deployment {
	n := len(w.Functions)
	d := &Deployment{
		W:         w,
		Placement: make([]int, n),
		Socket:    make([]int, n),
		Replicas:  make([]int, n),
	}
	for i := range d.Replicas {
		if w.Class == workload.LS {
			d.Replicas[i] = LSReplicasFor(w, i, w.MaxQPS)
		} else if w.Instances > 1 {
			d.Replicas[i] = w.Instances
		} else {
			d.Replicas[i] = 1
		}
	}
	if w.Class == workload.LS {
		d.QPS = w.MaxQPS / 2
	}
	return d
}

// SpreadDeployment returns a deployment of w whose functions are spread
// round-robin across the testbed's servers (and across sockets once the
// servers wrap) — the balancedResourceAllocation-style placement the
// paper's characterization experiments start from. An LS deployment is
// offered NewDeployment's half MaxQPS.
func SpreadDeployment(w *workload.Workload, tb *resources.Testbed) *Deployment {
	d := NewDeployment(w)
	s := tb.NumServers()
	for f := range d.Placement {
		d.Placement[f] = f % s
		sockets := max(1, tb.Servers[d.Placement[f]].Sockets)
		d.Socket[f] = (f / s) % sockets
	}
	return d
}

// Beside returns a deployment of a clone of w with every function on
// the server and socket of d's function f: a co-runner squeezing that
// one function, the partial interference of the paper's studies.
func Beside(w *workload.Workload, d *Deployment, f int) *Deployment {
	c := NewDeployment(w.Clone())
	for cf := range c.Placement {
		c.Placement[cf] = d.Placement[f]
		c.Socket[cf] = d.Socket[f]
	}
	return c
}

// Validate checks that the deployment's per-function slices are
// consistent with its workload and the testbed size.
func (d *Deployment) Validate(numServers int) error {
	n := len(d.W.Functions)
	if len(d.Placement) != n {
		return fmt.Errorf("deployment %q: placement length %d, want %d", d.W.Name, len(d.Placement), n)
	}
	if len(d.Socket) != n {
		return fmt.Errorf("deployment %q: socket length %d, want %d", d.W.Name, len(d.Socket), n)
	}
	if len(d.Replicas) != n {
		return fmt.Errorf("deployment %q: replicas length %d, want %d", d.W.Name, len(d.Replicas), n)
	}
	for f, s := range d.Placement {
		if s < 0 || s >= numServers {
			return fmt.Errorf("deployment %q: function %d on invalid server %d", d.W.Name, f, s)
		}
		if d.Replicas[f] < 1 {
			return fmt.Errorf("deployment %q: function %d has %d replicas", d.W.Name, f, d.Replicas[f])
		}
	}
	return nil
}

// Scenario is a set of colocated deployments to evaluate together.
type Scenario struct {
	Deployments []*Deployment
}

// Config holds the model's calibration constants. DefaultConfig returns
// values calibrated so that the paper's motivating experiments
// reproduce in shape (see DESIGN.md §3); tests pin the qualitative
// behaviours, not these numbers.
type Config struct {
	// Knee, Quad and Over parameterize per-resource pressure:
	// pressure(u) = Quad*(u-Knee)^2 for Knee<u<=1, and
	// Quad*(1-Knee)^2 + Over*(u-1) beyond capacity.
	Knee [resources.NumKinds]float64
	Quad [resources.NumKinds]float64
	Over [resources.NumKinds]float64

	// QueueFactor scales the p99 queueing term (ln(100) for M/M/1).
	QueueFactor float64
	// MaxRho caps utilization inside the stable-queue formulas.
	MaxRho float64
	// OverloadPenalty scales the latency blow-up past saturation.
	OverloadPenalty float64
	// ClosedLoopGamma damps the offered load when end-to-end latency
	// inflates — the restoring/propagation mechanism of Observations
	// 4 and 5.
	ClosedLoopGamma float64

	// Gateway model (§2.1 reason 2 and Figure 14).
	GatewayBaseMs     float64 // per-invocation gateway service time
	GatewayWorkers    float64 // gateway service concurrency
	GatewayKneeInst   float64 // instance count where forwarding degrades
	GatewayInstSlope  float64 // quadratic degradation past the knee
	GatewaySatFactor  float64 // queue-management cost of saturated functions
	IdleDemandFloor   float64 // idle fraction of an LS instance's demand
	FixedPointIters   int     // fixed-point iterations for the LS solve
	StepS             float64 // co-execution time step for SC scenarios
	MaxHorizonS       float64 // co-execution safety horizon
	NoiseIPC          float64 // measurement noise levels (lognormal rel)
	NoiseMean         float64
	NoiseP99          float64
	NoiseJCT          float64
	KneeIPCRatio      float64 // IPC/solo ratio below which tail latency decouples (Figure 7)
	BelowKneeP99Noise float64 // extra tail noise below the knee
}

// DefaultConfig returns the calibrated model constants.
func DefaultConfig() Config {
	c := Config{
		QueueFactor:       math.Log(100),
		MaxRho:            0.97,
		OverloadPenalty:   3.0,
		ClosedLoopGamma:   0.35,
		GatewayBaseMs:     0.25,
		GatewayWorkers:    8,
		GatewayKneeInst:   110,
		GatewayInstSlope:  40,
		GatewaySatFactor:  0.2,
		IdleDemandFloor:   0.05,
		FixedPointIters:   16,
		StepS:             2.0,
		MaxHorizonS:       4000,
		NoiseIPC:          0.012,
		NoiseMean:         0.03,
		NoiseP99:          0.05,
		NoiseJCT:          0.02,
		KneeIPCRatio:      0.75,
		BelowKneeP99Noise: 0.45,
	}
	c.Knee = [resources.NumKinds]float64{
		resources.CPU:     0.72,
		resources.Memory:  0.85,
		resources.LLC:     0.60,
		resources.MemBW:   0.65,
		resources.Network: 0.70,
		resources.Disk:    0.65,
	}
	// Quad/Over are calibrated so that 2x oversubscription of a
	// fully-sensitive function roughly halves its speed (fair-share
	// timesharing), with I/O resources penalized a little harder.
	c.Quad = [resources.NumKinds]float64{
		resources.CPU:     3,
		resources.Memory:  2,
		resources.LLC:     4,
		resources.MemBW:   4,
		resources.Network: 5,
		resources.Disk:    5,
	}
	c.Over = [resources.NumKinds]float64{
		resources.CPU:     1.0,
		resources.Memory:  2.0,
		resources.LLC:     1.5,
		resources.MemBW:   1.5,
		resources.Network: 3.0,
		resources.Disk:    3.0,
	}
	return c
}

// Partition reserves a fraction of a server's partitionable resources
// (CPU cores via cpusets, LLC ways via CAT, memory bandwidth via MBA)
// for the protected class. The unprotected class gets the remainder.
// Fractions outside (0,1) disable partitioning of that resource.
type Partition struct {
	CPUFrac   float64
	LLCFrac   float64
	MemBWFrac float64
}

// frac returns the protected fraction for kind k, or 0 when the
// resource is unpartitioned.
func (p Partition) frac(k resources.Kind) float64 {
	var f float64
	switch k {
	case resources.CPU:
		f = p.CPUFrac
	case resources.LLC:
		f = p.LLCFrac
	case resources.MemBW:
		f = p.MemBWFrac
	}
	if f <= 0 || f >= 1 {
		return 0
	}
	return f
}

// Model evaluates scenarios on a testbed.
type Model struct {
	Testbed *resources.Testbed
	Cfg     Config
	// Partitions holds per-server resource partitions (nil/absent =
	// fully shared, the default the paper's characterization uses:
	// "functions must share limited cores, memory bandwidth and LLC").
	Partitions map[int]Partition
	// capScale holds per-server capacity multipliers (fault injection:
	// a straggler node contends as if every resource were
	// proportionally smaller). Absent means nominal capacity.
	capScale map[int]float64
	// solvers pools LS fixed-point scratch for Evaluate, which may run
	// concurrently on one model (experiment worker pools). The Stepper
	// owns a private solver instead.
	solvers sync.Pool
}

// getSolver borrows solver scratch from the pool; putSolver returns it.
func (m *Model) getSolver() *lsSolver {
	if v := m.solvers.Get(); v != nil {
		return v.(*lsSolver)
	}
	return m.newSolver()
}

func (m *Model) putSolver(sv *lsSolver) { m.solvers.Put(sv) }

// SetCapacityScale multiplies server s's effective capacity by f in
// every contention domain; f == 1 (or f <= 0) clears the override.
// Like a partition, the scale applies to contention, not to the
// solo-run reference — so a workload on a straggler slows down even
// when it runs alone there.
func (m *Model) SetCapacityScale(s int, f float64) {
	if f == 1 || f <= 0 {
		delete(m.capScale, s)
		return
	}
	if m.capScale == nil {
		m.capScale = make(map[int]float64)
	}
	m.capScale[s] = f
}

// New returns a model of the given testbed with default calibration.
func New(tb *resources.Testbed) *Model {
	return &Model{Testbed: tb, Cfg: DefaultConfig()}
}

// SetPartition installs (or, with a zero Partition, clears) server s's
// resource partition.
func (m *Model) SetPartition(s int, p Partition) {
	if m.Partitions == nil {
		m.Partitions = make(map[int]Partition)
	}
	if p.frac(resources.CPU) == 0 && p.frac(resources.LLC) == 0 && p.frac(resources.MemBW) == 0 {
		delete(m.Partitions, s)
		return
	}
	m.Partitions[s] = p
}

// socketScoped reports whether a resource contends per CPU socket
// rather than per server.
func socketScoped(k resources.Kind) bool { return sockScopedTab[k] }

// sockScopedTab tabulates socketScoped so hot per-kind loops pay an
// array load instead of a switch.
var sockScopedTab = [resources.NumKinds]bool{
	resources.CPU: true, resources.LLC: true, resources.MemBW: true,
}

// demandStore accumulates resource demand per contention domain in a
// dense array — the allocation-free replacement for the former
// map[domainKey]resources.Vector. Slots are indexed by
// (server, socket+1, protected): socket index 0 is the server-wide
// domain (the old socket == -1 key), so ascending slot order is
// exactly the sorted (server asc, socket asc with -1 first, prot
// false-first) iteration order PR 2 fixed the demand fold to — an
// ascending walk reproduces the map-era float accumulation bit for
// bit. Untouched slots read as zero, like absent map keys; touched
// slots are tracked so reset is O(touched).
type demandStore struct {
	sockStride int // max sockets across the testbed + 1 ("-1" domain first)
	vecs       []resources.Vector
	touched    []bool
	dirty      []int32
}

func newDemandStore(tb *resources.Testbed) *demandStore {
	maxSock := 1
	for _, s := range tb.Servers {
		if s.Sockets > maxSock {
			maxSock = s.Sockets
		}
	}
	n := tb.NumServers() * (maxSock + 1) * 2
	return &demandStore{
		sockStride: maxSock + 1,
		vecs:       make([]resources.Vector, n),
		touched:    make([]bool, n),
		dirty:      make([]int32, 0, n),
	}
}

// slot maps a domain to its dense index, growing the socket stride in
// the (never observed) case of a socket id beyond the testbed's specs.
func (ds *demandStore) slot(server, socket int, prot bool) int {
	si := socket + 1
	if si >= ds.sockStride {
		ds.grow(si + 1)
	}
	idx := (server*ds.sockStride + si) * 2
	if prot {
		idx++
	}
	return idx
}

// grow re-strides the store for a larger socket count, remapping the
// touched slots.
func (ds *demandStore) grow(stride int) {
	old := *ds
	servers := len(old.vecs) / (old.sockStride * 2)
	n := servers * stride * 2
	ds.sockStride = stride
	ds.vecs = make([]resources.Vector, n)
	ds.touched = make([]bool, n)
	ds.dirty = make([]int32, 0, n)
	for _, i := range old.dirty {
		prot := int(i) & 1
		si := (int(i) / 2) % old.sockStride
		server := (int(i) / 2) / old.sockStride
		j := (server*stride+si)*2 + prot
		ds.vecs[j] = old.vecs[i]
		ds.touched[j] = true
		ds.dirty = append(ds.dirty, int32(j))
	}
}

// touch marks a slot live and returns it for accumulation.
func (ds *demandStore) touch(idx int) *resources.Vector {
	if !ds.touched[idx] {
		ds.touched[idx] = true
		ds.dirty = append(ds.dirty, int32(idx))
	}
	return &ds.vecs[idx]
}

// reset zeroes the touched slots, returning the store to empty.
func (ds *demandStore) reset() {
	for _, i := range ds.dirty {
		ds.vecs[i] = resources.Vector{}
		ds.touched[i] = false
	}
	ds.dirty = ds.dirty[:0]
}

// copyFrom assigns src's touched slots into ds (which must be freshly
// reset) — the dense analogue of copying a demand map key by key.
func (ds *demandStore) copyFrom(src *demandStore) {
	if src == nil {
		return
	}
	if ds.sockStride == src.sockStride {
		// Equal strides make the slot mapping the identity — same
		// slots, same dirty order, minus the div/mod remapping. The
		// fixed-point loop hits this every iteration (the store is
		// pre-grown to the background stride before the solve).
		for _, i := range src.dirty {
			*ds.touch(int(i)) = src.vecs[i]
		}
		return
	}
	for _, i := range src.dirty {
		prot := int(i)&1 == 1
		si := (int(i) / 2) % src.sockStride
		server := (int(i) / 2) / src.sockStride
		*ds.touch(ds.slot(server, si-1, prot)) = src.vecs[i]
	}
}

func (ds *demandStore) add(server, socket int, prot bool, v *resources.Vector) {
	ds.addAt(ds.slot(server, socket, prot), ds.slot(server, -1, prot), v)
}

// addAt is add with the two slot indices already resolved (hot loops
// precompute them per function via slowCtx).
func (ds *demandStore) addAt(ski, svi int, v *resources.Vector) {
	sk := ds.touch(ski)
	sv := ds.touch(svi)
	// Unrolled over the fixed Kind order (ascending, socket-scoped
	// kinds to the socket slot): the exact additions the generic
	// socketScoped loop performed, minus the per-kind branch.
	sk[resources.CPU] += v[resources.CPU]
	sv[resources.Memory] += v[resources.Memory]
	sk[resources.LLC] += v[resources.LLC]
	sk[resources.MemBW] += v[resources.MemBW]
	sv[resources.Network] += v[resources.Network]
	sv[resources.Disk] += v[resources.Disk]
}

// pressure returns the contention pressure for utilization u of kind k.
func (c *Config) pressure(k resources.Kind, u float64) float64 {
	knee := c.Knee[k]
	if u <= knee {
		return 0
	}
	if u <= 1 {
		d := u - knee
		return c.Quad[k] * d * d
	}
	d := 1 - knee
	return c.Quad[k]*d*d + c.Over[k]*(u-1)
}

// computeScoped reports whether contention on the resource stalls the
// pipeline (lowering IPC) rather than just stretching I/O waits. CPU,
// LLC and memory-bandwidth contention reduce IPC; memory capacity,
// network and disk contention inflate service time while the processor
// keeps retiring instructions efficiently — which is why iperf barely
// moves corunners' IPC in Figure 3(a) yet still costs latency.
func computeScoped(k resources.Kind) bool {
	switch k {
	case resources.CPU, resources.LLC, resources.MemBW:
		return true
	}
	return false
}

// slowCtx caches the per-(function placement) constants of
// slowdownCtx: the dense-store slot indices its domains live at and the
// contended / solo-reference capacities per kind with partition and
// capacity-scale multipliers already folded in. A context is valid for
// one solve: placement, partitions, capacity scales and the demand
// store's stride must not change underneath it.
type slowCtx struct {
	capEff    [resources.NumKinds]float64
	capSolo   [resources.NumKinds]float64
	classOnly [resources.NumKinds]bool
	skip      [resources.NumKinds]bool
	p0        int32 // protected-slot offset
	ski, svi  int32 // add() slot indices (socket-scoped / server-wide)

	// Compact copies of the function constants the fixed-point loop
	// reads every iteration, so the hot path walks this small array
	// instead of the full Function structs (copies are exact; the
	// arithmetic consuming them is unchanged).
	dem     resources.Vector // fn.Demand
	sens    resources.Vector // fn.Sensitivity
	repF    float64          // float64(d.Replicas[f]) — exact conversion
	rep1000 float64          // repF * 1000, the capacity numerator
	baseMs  float64          // fn.BaseServiceMs
	coldMs  float64          // fn.ColdStartMs
}

// buildSlowCtx fills cx for a function placed on (server, socket, prot).
// The slot() calls may grow ds; callers must pre-grow ds to its final
// stride before building a batch of contexts (grow remaps indices).
func (m *Model) buildSlowCtx(cx *slowCtx, ds *demandStore, server, socket int, prot bool) {
	spec := &m.Testbed.Servers[server]
	partition, hasPart := m.Partitions[server]
	capF, hasCapScale := m.capScale[server]
	ski := ds.slot(server, socket, prot)
	svi := ds.slot(server, -1, prot)
	cx.ski, cx.svi = int32(ski), int32(svi)
	cx.p0 = 0
	if prot {
		cx.p0 = 1
	}
	sockets := float64(max(1, spec.Sockets))
	for k := 0; k < int(resources.NumKinds); k++ {
		kind := resources.Kind(k)
		ss := socketScoped(kind)
		// The domain's capacity: socket-scoped kinds split the server's
		// capacity across sockets, except LLC (the E7-4820v4 carries a
		// full 25 MB LLC per socket).
		cap := spec.Capacity[k]
		if ss && kind != resources.LLC {
			cap /= sockets
		}
		cx.skip[k] = cap <= 0
		// The solo-run reference was profiled at full capacity, so the
		// own-demand subtraction always uses the unpartitioned
		// capacity: a job squeezed into a small partition slows down
		// even alone in it.
		cx.capSolo[k] = cap
		cx.classOnly[k] = false
		if hasPart {
			// Partitioned resource: the function contends only with
			// its own class, inside its class's reserved capacity.
			if f := partition.frac(kind); f > 0 {
				cx.classOnly[k] = true
				if prot {
					cap *= f
				} else {
					cap *= 1 - f
				}
			}
		}
		// Straggler nodes (fault injection) shrink the contended
		// capacity the same way a partition does, relative to the
		// full-capacity solo reference.
		if hasCapScale {
			cap *= capF
		}
		cx.capEff[k] = cap
	}
}

// slowdownCtx computes a function's interference slowdown given the
// total demand in its domains (cx, from buildSlowCtx) and its own
// contribution, split into a compute component (degrades IPC and
// service time) and an I/O component (degrades service time only). Own
// demand is subtracted through the convexity trick
// pressure(total)-pressure(own), so a solo-run function experiences
// exactly zero interference.
func (m *Model) slowdownCtx(cx *slowCtx, total *demandStore, own *resources.Vector,
	sens *resources.Vector, sensScale float64) (sigmaCompute, sigmaIO float64) {

	p0 := int(cx.p0)
	// The context's two domains span four store rows (socket/server ×
	// own-class/other-class). Hoisting the row pointers replaces the
	// per-kind base[k] indexing — the loads and the class+other add
	// are unchanged, in the same per-kind order.
	skBase := int(cx.ski) - p0
	svBase := int(cx.svi) - p0
	skC, skO := &total.vecs[skBase+p0], &total.vecs[skBase+1-p0]
	svC, svO := &total.vecs[svBase+p0], &total.vecs[svBase+1-p0]
	sigmaCompute, sigmaIO = 1.0, 1.0
	for k := 0; k < int(resources.NumKinds); k++ {
		if cx.skip[k] {
			continue
		}
		kind := resources.Kind(k)
		var class, tot float64
		if sockScopedTab[k] {
			class = skC[k]
			tot = class + skO[k]
		} else {
			class = svC[k]
			tot = class + svO[k]
		}
		demand := tot
		if cx.classOnly[k] {
			demand = class
		}
		u := demand / cx.capEff[k]
		p := m.Cfg.pressure(kind, u)
		if p == 0 {
			// pressure(uo) >= 0, so p - pressure(uo) <= 0 and the
			// kind contributes nothing — skip the solo-side work.
			continue
		}
		uo := own[k] / cx.capSolo[k]
		p -= m.Cfg.pressure(kind, uo)
		if p <= 0 {
			continue
		}
		if computeScoped(kind) {
			sigmaCompute += sens[k] * sensScale * p
		} else {
			sigmaIO += sens[k] * sensScale * p
		}
	}
	return sigmaCompute, sigmaIO
}

// totalSlowdown is the combined service-time stretch.
func totalSlowdown(sigmaCompute, sigmaIO float64) float64 {
	return sigmaCompute * sigmaIO
}

// resolveSocket returns the effective socket of function f of
// deployment d; auto (-1) spreads functions round-robin over the
// server's sockets.
func (m *Model) resolveSocket(d *Deployment, f int) int {
	s := d.Socket[f]
	if s >= 0 {
		return s
	}
	return f % max(1, m.Testbed.Servers[d.Placement[f]].Sockets)
}
