package cli

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gsight/internal/telemetry"
)

// FuzzReadDecisionLog feeds arbitrary bytes as a decision log through
// the reader and every verb that reads one log. None may panic, every
// refusal names the file, and heat accepts a log only when each of its
// step samples fits the cluster of the first.
func FuzzReadDecisionLog(f *testing.F) {
	header := fmt.Sprintf(`{"event":"header","seq":0,"schema":%d}`, telemetry.DecisionLogSchema) + "\n"
	step := `{"event":"step","seq":1,"sim_time_s":30,"step":1,"active_servers":1,"density":0.5,"cpu_util":0.2,"cpu_demand":[1,2],"mem_used":[1,2]}` + "\n"
	for _, seed := range []string{
		"",
		`{"event":"header","seq":0,"schema":1}` + "\n",
		header,
		header + step + `{"event":"step","seq":2,"step":2,"down":[2],"cpu_demand":[1,2],"mem_used":[1,2]}` + "\n",
		header + step + `{"seq":2,"event":"step","step":2,"slow":[1],"cpu_demand":[1,-2],"mem_used":[1,2]}` + "\n",
		header + step + `{"event":"step","seq":2,"step":2,"cpu_demand":[1,2,3],"mem_used":[1,2]}` + "\n",
		header + `{"event":"placement","seq":1,"sim_time_s":30,"scheduler":"Gsight","workload":"matmul","class":"SC","functions":1,"servers":8,"active_servers":2,"spread_levels":1,"sla_checks":2,"outcome":"placed","placement":[3],"pred_ipc":1.25,"tier0_kept":4,"tier0_pruned":4,"tier0_score":0.5}` + "\n" +
			`{"event":"placement","seq":2,"sim_time_s":31,"scheduler":"Gsight","workload":"dd","class":"SC","functions":1,"servers":8,"active_servers":2,"spread_levels":3,"sla_checks":6,"outcome":"rejected","reason":"sla-violated"}` + "\n" +
			`{"event":"job_begin","seq":3,"sim_time_s":30,"id":7,"archetype":"matmul","job":"matmul#7","placement":[3],"pred_jct_s":40.5}` + "\n" +
			`{"event":"job_end","seq":4,"sim_time_s":90,"id":7,"archetype":"matmul","jct_s":42,"slowdown":1.05,"sla_ok":false}` + "\n" +
			`{"event":"pred_sample","seq":5,"sim_time_s":90,"archetype":"matmul","qos":"jct","pred":40.5,"obs":42}` + "\n" +
			`{"event":"pred_sample","seq":6,"sim_time_s":120,"archetype":"e-commerce","qos":"ipc","pred":1.1,"obs":1.2}` + "\n" +
			`{"event":"predictor_drift","seq":7,"sim_time_s":120,"qos":"jct","archetype":"overall","window":64,"mean_err":-0.2,"mape":0.35,"ph":2.5}` + "\n" +
			`{"event":"fault","seq":8,"sim_time_s":150,"kind":"slow-set","node":2,"factor":1.5,"displaced_services":0,"displaced_jobs":0}` + "\n" +
			`{"event":"degraded","seq":9,"sim_time_s":150,"entered":true,"reason":"predictor-unavailable","fallback":"WorstFit"}` + "\n" +
			`{"event":"reactive","seq":10,"sim_time_s":180,"action":"spread-service","service":"e-commerce","moved":2}` + "\n" +
			`{"event":"predictor_update","seq":11,"predictor":"Gsight","kind":"ipc","phase":"update","batch":10,"samples_seen":20}` + "\n" +
			step + `{"event":"job_end","seq":12,"sim_time`,
		`{"seq":1,"kind":"place","order":1,"place":{"workload":"matmul","name":"matmul-1","outcome":"placed","placement":[0]}}` + "\n" +
			`{"seq":2,"kind":"observe","order":2,"observe":{"name":"matmul-1","qos":"ipc","value":1.2,"applied":true}}` + "\n" +
			`{"seq":3,"kind":"release","order":3,"release":{"name":"matmul-1","released":true}}` + "\n",
	} {
		f.Add([]byte(seed))
	}
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		f.Fatal(err)
	}
	defer devNull.Close()
	path := filepath.Join(f.TempDir(), "decisions.jsonl")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		saved := os.Stdout
		os.Stdout = devNull
		defer func() { os.Stdout = saved }()
		for _, v := range inspectVerbs() {
			switch v.name {
			case "summary", "predq", "errors", "heat", "trace":
				err := v.run([]string{path})
				if err != nil && !strings.Contains(err.Error(), path) {
					t.Errorf("inspect %s: %v, an error that does not name the file", v.name, err)
				}
				if err == nil && v.name == "heat" {
					if misfit := firstMisfitStep(t, path); misfit != "" {
						t.Errorf("inspect heat accepted a log whose %s", misfit)
					}
				}
			}
		}
	})
}

// firstMisfitStep describes the first step sample of the log at path
// whose columns or server lists do not fit the first step's cluster, or
// returns "" when every one fits.
func firstMisfitStep(t *testing.T, path string) string {
	r, err := openLog(path, stepsWhole)
	if err != nil {
		t.Fatalf("heat read the log, a second read refuses it: %v", err)
	}
	defer r.f.Close()
	servers := -1
	for {
		ev, err := r.next()
		if err != nil {
			t.Fatalf("heat read the log, a second read refuses it: %v", err)
		}
		if ev == nil {
			return ""
		}
		st, ok := ev.val.(*telemetry.StepSample)
		if !ok {
			continue
		}
		if servers < 0 {
			servers = len(st.CPUDemand)
		}
		if len(st.CPUDemand) != servers || len(st.MemUsed) != servers {
			return fmt.Sprintf("step %d has %d/%d columns, the first %d", st.Step, len(st.CPUDemand), len(st.MemUsed), servers)
		}
		for _, s := range append(st.Down, st.Slow...) {
			if s < 0 || s >= servers {
				return fmt.Sprintf("step %d names server %d of %d", st.Step, s, servers)
			}
		}
	}
}
