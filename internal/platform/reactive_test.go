package platform

import (
	"testing"

	"gsight/internal/perfmodel"
	"gsight/internal/profile"
	"gsight/internal/resources"
	"gsight/internal/rng"
	"gsight/internal/sched"
	"gsight/internal/workload"
)

// testbedSpec is the single server spec the unit fixtures run on.
func testbedSpec() resources.ServerSpec { return resources.DefaultTestbed().Servers[0] }

// lsFixture builds a deployed service with every function on `on`.
func lsFixture(w *workload.Workload, on int) *serviceState {
	ps := profile.WorkloadProfiles(w, testbedSpec(), rng.Stream(1, "reactive-test"))
	dep := perfmodel.NewDeployment(w)
	for f := range dep.Socket {
		dep.Socket[f] = -1
	}
	dep.QPS = 100
	for f := range dep.Replicas {
		dep.Replicas[f] = 1
		dep.Placement[f] = on
	}
	return &serviceState{svc: LSService{W: w, SLA: sched.SLA{MinIPC: 0.5}}, dep: dep, profiles: ps}
}

// scFixture builds an active batch job with every function on `on`.
func scFixture(id int, w *workload.Workload, on int) *scActive {
	ps := profile.WorkloadProfiles(w, testbedSpec(), rng.Stream(2, "reactive-test-sc"))
	dep := perfmodel.NewDeployment(w)
	for f := range dep.Placement {
		dep.Placement[f] = on
	}
	in := inputFor(w, dep, ps)
	return &scActive{id: id, input: in, sla: sched.SLA{}, dep: dep}
}

// resultWorstLast builds an LSResult whose last function has the worst
// local p99, so worstFuncs returns indices in descending order.
func resultWorstLast(n int) perfmodel.LSResult {
	r := perfmodel.LSResult{PerFunc: make([]perfmodel.FuncPerf, n)}
	for f := range r.PerFunc {
		r.PerFunc[f].LocalP99Ms = float64(f + 1)
	}
	return r
}

func TestRefreshStateRebuildsBookkeeping(t *testing.T) {
	sst := sched.ShardedStateFromProfiles(testbedSpec(), 4, 0)
	st := sst.Base()
	ss := lsFixture(workload.SocialNetwork(), 0)
	jobs := []*scActive{scFixture(7, workload.DD(), 1)}
	refreshState(sst, []*serviceState{ss}, jobs)
	if len(st.Running) != 2 {
		t.Fatalf("running = %d, want service + job", len(st.Running))
	}
	if st.Used[0].IsZero() || st.Used[1].IsZero() {
		t.Fatal("commit left populated servers empty")
	}
	if !st.Used[2].IsZero() || !st.Used[3].IsZero() {
		t.Fatal("unpopulated servers carry allocation")
	}
	// Crash-displacement path: after moving everything off node 0, a
	// refresh must drop node 0's allocation entirely (no leaks from the
	// pre-crash placement).
	for f := range ss.dep.Placement {
		ss.dep.Placement[f] = 2
	}
	refreshState(sst, []*serviceState{ss}, jobs)
	if !st.Used[0].IsZero() {
		t.Fatal("stale allocation on evacuated server after refresh")
	}
	if st.Used[2].IsZero() {
		t.Fatal("moved service not accounted on its new server")
	}
	if len(st.Running) != 2 {
		t.Fatalf("running = %d after refresh, want 2", len(st.Running))
	}
}

func TestMigrateWorstSpreadsOffHotServer(t *testing.T) {
	sst := sched.ShardedStateFromProfiles(testbedSpec(), 4, 0)
	st := sst.Base()
	m := perfmodel.New(resources.DefaultTestbed())
	ss := lsFixture(workload.SocialNetwork(), 0)
	refreshState(sst, []*serviceState{ss}, nil)
	lr := resultWorstLast(len(ss.dep.Placement))
	moved := migrateWorst(m, st, ss, lr, 3)
	if moved != 3 {
		t.Fatalf("moved = %d, want 3", moved)
	}
	// The three worst functions are the last three; each must now sit on
	// a distinct server away from the hotspot.
	seen := map[int]bool{}
	n := len(ss.dep.Placement)
	for _, f := range []int{n - 1, n - 2, n - 3} {
		s := ss.dep.Placement[f]
		if s == 0 {
			t.Fatalf("worst function %d still on the hot server", f)
		}
		if seen[s] {
			t.Fatalf("two migrated functions landed on server %d", s)
		}
		seen[s] = true
	}
}

func TestMigrateWorstSkipsOfflineServers(t *testing.T) {
	sst := sched.ShardedStateFromProfiles(testbedSpec(), 3, 0)
	st := sst.Base()
	m := perfmodel.New(resources.DefaultTestbed())
	ss := lsFixture(workload.SocialNetwork(), 0)
	refreshState(sst, []*serviceState{ss}, nil)
	st.SetOffline(1, true)
	lr := resultWorstLast(len(ss.dep.Placement))
	moved := migrateWorst(m, st, ss, lr, 2)
	if moved == 0 {
		t.Fatal("nothing moved despite an online target")
	}
	for f, s := range ss.dep.Placement {
		if s == 1 {
			t.Fatalf("function %d migrated onto the offline server", f)
		}
	}
}

func TestMigrateWorstAllOffline(t *testing.T) {
	sst := sched.ShardedStateFromProfiles(testbedSpec(), 2, 0)
	st := sst.Base()
	m := perfmodel.New(resources.DefaultTestbed())
	ss := lsFixture(workload.SocialNetwork(), 0)
	refreshState(sst, []*serviceState{ss}, nil)
	st.SetOffline(1, true)
	// Only the hot server itself is online: there is nowhere to go.
	if moved := migrateWorst(m, st, ss, resultWorstLast(len(ss.dep.Placement)), 2); moved != 0 {
		t.Fatalf("moved = %d with no alternative server", moved)
	}
}

func TestEvictSCMovesLargestCorunner(t *testing.T) {
	sst := sched.ShardedStateFromProfiles(testbedSpec(), 4, 0)
	st := sst.Base()
	small := scFixture(1, workload.DD(), 0)
	big := scFixture(2, workload.MatMul(), 0)
	elsewhere := scFixture(3, workload.FloatOp(), 2)
	jobs := []*scActive{small, big, elsewhere}
	refreshState(sst, nil, jobs)
	if !evictSC(st, jobs, 0) {
		t.Fatal("no corunner evicted from the hot server")
	}
	// Exactly one of the two co-located jobs moved, wholesale, off the
	// hot server; the job on server 2 stays put.
	movedJobs := 0
	for _, a := range []*scActive{small, big} {
		on, off := 0, 0
		for _, s := range a.dep.Placement {
			if s == 0 {
				on++
			} else {
				off++
			}
		}
		if on > 0 && off > 0 {
			t.Fatalf("job %d split across servers: %v", a.id, a.dep.Placement)
		}
		if on == 0 {
			movedJobs++
		}
	}
	if movedJobs != 1 {
		t.Fatalf("moved %d jobs, want exactly one", movedJobs)
	}
	for _, s := range elsewhere.dep.Placement {
		if s != 2 {
			t.Fatalf("uninvolved job moved: %v", elsewhere.dep.Placement)
		}
	}
}

func TestEvictSCRespectsOffline(t *testing.T) {
	sst := sched.ShardedStateFromProfiles(testbedSpec(), 3, 0)
	st := sst.Base()
	job := scFixture(1, workload.DD(), 0)
	jobs := []*scActive{job}
	refreshState(sst, nil, jobs)
	st.SetOffline(1, true)
	if !evictSC(st, jobs, 0) {
		t.Fatal("eviction failed with server 2 still online")
	}
	for _, s := range job.dep.Placement {
		if s != 2 {
			t.Fatalf("victim landed on %d, want the only online alternative 2", s)
		}
	}
}

func TestEvictSCNowhereToGo(t *testing.T) {
	sst := sched.ShardedStateFromProfiles(testbedSpec(), 2, 0)
	st := sst.Base()
	job := scFixture(1, workload.DD(), 0)
	jobs := []*scActive{job}
	refreshState(sst, nil, jobs)
	st.SetOffline(1, true)
	if evictSC(st, jobs, 0) {
		t.Fatal("evicted a job with every other server offline")
	}
}

func TestEvictSCNoCorunner(t *testing.T) {
	sst := sched.ShardedStateFromProfiles(testbedSpec(), 4, 0)
	st := sst.Base()
	jobs := []*scActive{scFixture(1, workload.DD(), 3)}
	refreshState(sst, nil, jobs)
	if evictSC(st, jobs, 0) {
		t.Fatal("evicted a job that was not on the hot server")
	}
}
