package workload

import "gsight/internal/resources"

// The benchmark catalog. Demands use resources.Vector order
// {CPU cores, Memory GB, LLC MB, MemBW GB/s, Network Gb/s, Disk MB/s};
// sensitivities are unitless in [0,1].

// SocialNetwork returns the message-posting workflow of the
// DeathStarBench social network ported to nine serverless functions
// (Figure 2, workload #1). The end-to-end critical path is
// ① compose-post → ② upload-media → ⑥ compose-and-upload →
// ⑧ upload-home-timeline → ⑨ get-followers; functions ③④⑤ are
// parallel branches and ⑦ post-storage is asynchronous — the paper's
// non-critical path. Its measured no-interference SLA is a 267 ms
// 99th-percentile latency (§6.3).
func SocialNetwork() *Workload {
	w := &Workload{
		Name:     "social-network",
		Class:    LS,
		SLAp99Ms: 267,
		MaxQPS:   600,
		Entry:    0,
		Functions: []Function{
			{ // 0: ① compose-post — the entry; fans out to uploads.
				Name:          "compose-post",
				Demand:        resources.Vector{1.0, 0.25, 2.0, 1.2, 0.30, 2},
				Sensitivity:   resources.Vector{0.55, 0.10, 0.45, 0.40, 0.25, 0.05},
				SoloIPC:       1.25,
				BaseServiceMs: 9,
				ColdStartMs:   450,
				Calls: []Call{
					{Callee: 1, Mode: Nested},
					{Callee: 2, Mode: Nested},
					{Callee: 3, Mode: Nested},
					{Callee: 4, Mode: Nested},
					{Callee: 5, Mode: Sequence},
				},
			},
			{ // 1: ② upload-media — the heaviest branch (media payloads).
				Name:          "upload-media",
				Demand:        resources.Vector{1.4, 0.40, 3.0, 2.2, 0.60, 8},
				Sensitivity:   resources.Vector{0.60, 0.15, 0.55, 0.55, 0.45, 0.15},
				SoloIPC:       1.10,
				BaseServiceMs: 12,
				ColdStartMs:   600,
			},
			{ // 2: ③ upload-text — light, off the critical path.
				Name:          "upload-text",
				Demand:        resources.Vector{0.5, 0.12, 0.8, 0.5, 0.10, 1},
				Sensitivity:   resources.Vector{0.35, 0.08, 0.25, 0.20, 0.15, 0.04},
				SoloIPC:       1.35,
				BaseServiceMs: 4,
				ColdStartMs:   300,
			},
			{ // 3: ④ upload-urls — light, off the critical path.
				Name:          "upload-urls",
				Demand:        resources.Vector{0.5, 0.10, 0.7, 0.4, 0.12, 1},
				Sensitivity:   resources.Vector{0.30, 0.08, 0.22, 0.18, 0.18, 0.04},
				SoloIPC:       1.38,
				BaseServiceMs: 4,
				ColdStartMs:   300,
			},
			{ // 4: ⑤ upload-unique-id — tiny helper.
				Name:          "upload-unique-id",
				Demand:        resources.Vector{0.3, 0.08, 0.4, 0.3, 0.05, 0},
				Sensitivity:   resources.Vector{0.25, 0.05, 0.18, 0.15, 0.08, 0.02},
				SoloIPC:       1.45,
				BaseServiceMs: 2,
				ColdStartMs:   250,
			},
			{ // 5: ⑥ compose-and-upload — joins the branches; a hotspot
				// here is maximally disruptive (Figure 4(b)).
				Name:          "compose-and-upload",
				Demand:        resources.Vector{1.2, 0.30, 2.5, 1.8, 0.40, 3},
				Sensitivity:   resources.Vector{0.60, 0.12, 0.50, 0.50, 0.30, 0.08},
				SoloIPC:       1.18,
				BaseServiceMs: 10,
				ColdStartMs:   500,
				Calls: []Call{
					{Callee: 6, Mode: Async},
					{Callee: 7, Mode: Sequence},
				},
			},
			{ // 6: ⑦ post-storage — asynchronous write, non-critical.
				Name:          "post-storage",
				Demand:        resources.Vector{0.6, 0.30, 1.0, 0.8, 0.20, 15},
				Sensitivity:   resources.Vector{0.30, 0.12, 0.25, 0.25, 0.15, 0.40},
				SoloIPC:       1.05,
				BaseServiceMs: 8,
				ColdStartMs:   400,
			},
			{ // 7: ⑧ upload-home-timeline — fan-out write to timelines.
				Name:          "upload-home-timeline",
				Demand:        resources.Vector{1.0, 0.35, 2.2, 1.6, 0.50, 4},
				Sensitivity:   resources.Vector{0.55, 0.15, 0.50, 0.45, 0.40, 0.10},
				SoloIPC:       1.12,
				BaseServiceMs: 9,
				ColdStartMs:   450,
				Calls:         []Call{{Callee: 8, Mode: Nested}},
			},
			{ // 8: ⑨ get-followers — cache/bandwidth hungry graph read;
				// the most interference-sensitive function (Figure 3(a):
				// matmul beside it triples the workflow's p99 versus
				// beside compose-post).
				Name:          "get-followers",
				Demand:        resources.Vector{1.3, 0.40, 4.0, 3.0, 0.35, 2},
				Sensitivity:   resources.Vector{0.70, 0.20, 0.90, 0.85, 0.30, 0.05},
				SoloIPC:       1.02,
				BaseServiceMs: 11,
				ColdStartMs:   500,
			},
		},
	}
	return w
}

// ECommerce returns a TPC-W-style e-commerce service as six functions
// (frontend → search/product in parallel → cart → order → payment).
// Its no-interference SLA is an 88 ms 99th-percentile latency (§6.3).
func ECommerce() *Workload {
	return &Workload{
		Name:     "e-commerce",
		Class:    LS,
		SLAp99Ms: 88,
		MaxQPS:   900,
		Entry:    0,
		Functions: []Function{
			{
				Name:          "frontend",
				Demand:        resources.Vector{0.8, 0.20, 1.5, 1.0, 0.40, 1},
				Sensitivity:   resources.Vector{0.50, 0.10, 0.40, 0.35, 0.30, 0.04},
				SoloIPC:       1.30,
				BaseServiceMs: 3,
				ColdStartMs:   350,
				Calls: []Call{
					{Callee: 1, Mode: Nested},
					{Callee: 2, Mode: Nested},
					{Callee: 3, Mode: Sequence},
				},
			},
			{
				Name:          "search",
				Demand:        resources.Vector{1.2, 0.35, 3.0, 2.0, 0.30, 3},
				Sensitivity:   resources.Vector{0.65, 0.15, 0.70, 0.60, 0.25, 0.08},
				SoloIPC:       1.08,
				BaseServiceMs: 5,
				ColdStartMs:   500,
			},
			{
				Name:          "product-catalog",
				Demand:        resources.Vector{0.9, 0.30, 2.5, 1.5, 0.25, 4},
				Sensitivity:   resources.Vector{0.55, 0.12, 0.60, 0.50, 0.20, 0.12},
				SoloIPC:       1.12,
				BaseServiceMs: 4,
				ColdStartMs:   450,
			},
			{
				Name:          "cart",
				Demand:        resources.Vector{0.6, 0.15, 1.0, 0.8, 0.20, 2},
				Sensitivity:   resources.Vector{0.45, 0.10, 0.35, 0.30, 0.20, 0.06},
				SoloIPC:       1.28,
				BaseServiceMs: 3,
				ColdStartMs:   350,
				Calls:         []Call{{Callee: 4, Mode: Nested}},
			},
			{
				Name:          "order",
				Demand:        resources.Vector{0.7, 0.20, 1.2, 1.0, 0.25, 5},
				Sensitivity:   resources.Vector{0.50, 0.12, 0.40, 0.35, 0.25, 0.15},
				SoloIPC:       1.20,
				BaseServiceMs: 4,
				ColdStartMs:   400,
				Calls:         []Call{{Callee: 5, Mode: Nested}},
			},
			{
				Name:          "payment",
				Demand:        resources.Vector{0.5, 0.15, 0.8, 0.6, 0.30, 1},
				Sensitivity:   resources.Vector{0.40, 0.08, 0.30, 0.25, 0.35, 0.04},
				SoloIPC:       1.32,
				BaseServiceMs: 3,
				ColdStartMs:   350,
			},
		},
	}
}

// MLServing returns a CPU-intensive latency-sensitive inference service;
// it is the "CPU intensive" group of the Figure 13 concept-shift study.
// Its solo IPC is ~1.6x that of the I/O-intensive social network, as the
// paper reports.
func MLServing() *Workload {
	return &Workload{
		Name:     "ml-serving",
		Class:    LS,
		SLAp99Ms: 150,
		MaxQPS:   400,
		Entry:    0,
		Functions: []Function{
			{
				Name:          "preprocess",
				Demand:        resources.Vector{1.5, 0.40, 3.0, 4.0, 0.20, 1},
				Sensitivity:   resources.Vector{0.75, 0.10, 0.55, 0.60, 0.10, 0.02},
				SoloIPC:       1.90,
				BaseServiceMs: 6,
				ColdStartMs:   700,
				Calls:         []Call{{Callee: 1, Mode: Nested}},
			},
			{
				Name:          "inference",
				Demand:        resources.Vector{3.0, 1.20, 8.0, 9.0, 0.10, 0},
				Sensitivity:   resources.Vector{0.85, 0.15, 0.75, 0.80, 0.05, 0.01},
				SoloIPC:       2.05,
				BaseServiceMs: 18,
				ColdStartMs:   1200,
				Calls:         []Call{{Callee: 2, Mode: Nested}},
			},
			{
				Name:          "postprocess",
				Demand:        resources.Vector{0.8, 0.20, 1.5, 1.5, 0.15, 0},
				Sensitivity:   resources.Vector{0.60, 0.08, 0.40, 0.45, 0.10, 0.01},
				SoloIPC:       1.85,
				BaseServiceMs: 4,
				ColdStartMs:   400,
			},
		},
	}
}

// MatMul returns the FunctionBench matrix-multiplication
// micro-benchmark: CPU-, cache- and bandwidth-intensive.
func MatMul() *Workload {
	return &Workload{
		Name:          "matmul",
		Class:         SC,
		SoloDurationS: 180,
		Instances:     1,
		Entry:         0,
		Functions: []Function{{
			Name:        "matmul",
			Demand:      resources.Vector{8, 4.0, 12, 22, 0.05, 2},
			Sensitivity: resources.Vector{0.80, 0.10, 0.85, 0.80, 0.02, 0.02},
			SoloIPC:     1.95,
			ColdStartMs: 800,
		}},
	}
}

// DD returns the FunctionBench dd micro-benchmark: disk-I/O intensive.
func DD() *Workload {
	return &Workload{
		Name:          "dd",
		Class:         SC,
		SoloDurationS: 150,
		Instances:     1,
		Entry:         0,
		Functions: []Function{{
			Name:        "dd",
			Demand:      resources.Vector{1, 0.5, 1, 2, 0.02, 420},
			Sensitivity: resources.Vector{0.15, 0.05, 0.10, 0.15, 0.02, 0.90},
			SoloIPC:     0.65,
			ColdStartMs: 300,
		}},
	}
}

// Iperf returns the FunctionBench iperf micro-benchmark:
// network-bandwidth intensive; it barely perturbs corunners' IPC
// (Figure 3(a)).
func Iperf() *Workload {
	return &Workload{
		Name:          "iperf",
		Class:         SC,
		SoloDurationS: 120,
		Instances:     1,
		Entry:         0,
		Functions: []Function{{
			Name:        "iperf",
			Demand:      resources.Vector{0.8, 0.2, 0.5, 1.5, 8.5, 1},
			Sensitivity: resources.Vector{0.10, 0.03, 0.06, 0.10, 0.95, 0.02},
			SoloIPC:     0.80,
			ColdStartMs: 250,
		}},
	}
}

// VideoProcessing returns the FunctionBench video-processing
// application: high CPU and memory pressure, medium disk and network.
func VideoProcessing() *Workload {
	return &Workload{
		Name:          "video-processing",
		Class:         SC,
		SoloDurationS: 240,
		Instances:     1,
		Entry:         0,
		Functions: []Function{{
			Name:        "video-processing",
			Demand:      resources.Vector{6, 6.0, 10, 16, 1.2, 60},
			Sensitivity: resources.Vector{0.75, 0.30, 0.70, 0.70, 0.25, 0.25},
			SoloIPC:     1.70,
			ColdStartMs: 1500,
		}},
	}
}

// FloatOp returns the FunctionBench float-operation micro-benchmark,
// the one short-lived FunctionBench member (seconds, not minutes).
func FloatOp() *Workload {
	return &Workload{
		Name:          "float-op",
		Class:         SC,
		SoloDurationS: 6,
		Instances:     1,
		Entry:         0,
		Functions: []Function{{
			Name:        "float-op",
			Demand:      resources.Vector{2, 0.2, 1.5, 2.5, 0.01, 0},
			Sensitivity: resources.Vector{0.70, 0.05, 0.40, 0.40, 0.01, 0.01},
			SoloIPC:     2.20,
			ColdStartMs: 200,
		}},
	}
}

// lrPhases models the SparkBench LR job's time-varying sensitivity: an
// early map phase that tolerates interference well, a late-map/shuffle
// phase that is much more sensitive (the Figure 3(b) finding), and a
// reduce phase.
func lrPhases() []Phase {
	return []Phase{
		{Frac: 0.55, DemandScale: resources.Vector{0.9, 1.0, 0.7, 0.7, 0.5, 1.0}, SensScale: 0.15},
		{Frac: 0.30, DemandScale: resources.Vector{1.2, 1.1, 1.4, 1.5, 1.8, 1.1}, SensScale: 1.60},
		{Frac: 0.15, DemandScale: resources.Vector{0.8, 1.0, 0.9, 0.9, 1.0, 0.8}, SensScale: 0.50},
	}
}

// LogisticRegression returns the SparkBench LR job: 60 instances
// processing 15 GB (4 M examples), solo JCT ≈ 429 s (Figure 3(b)).
func LogisticRegression() *Workload {
	return &Workload{
		Name:          "logistic-regression",
		Class:         SC,
		SoloDurationS: 429,
		Instances:     60,
		Entry:         0,
		Functions: []Function{{
			Name:        "lr-worker",
			Demand:      resources.Vector{0.11, 0.25, 0.20, 0.12, 0.08, 2},
			Sensitivity: resources.Vector{0.45, 0.15, 0.45, 0.50, 0.20, 0.05},
			SoloIPC:     1.45,
			Phases:      lrPhases(),
			ColdStartMs: 900,
		}},
	}
}

// KMeans returns the SparkBench KMeans job: 60 instances clustering two
// 15 GB partitions of 4 M points (Figure 3(b)).
func KMeans() *Workload {
	return &Workload{
		Name:          "kmeans",
		Class:         SC,
		SoloDurationS: 410,
		Instances:     60,
		Entry:         0,
		Functions: []Function{{
			Name:        "kmeans-worker",
			Demand:      resources.Vector{0.12, 0.25, 0.22, 0.13, 0.08, 2},
			Sensitivity: resources.Vector{0.50, 0.15, 0.50, 0.55, 0.18, 0.05},
			SoloIPC:     1.40,
			// KMeans front-loads its heaviest iterations, so delaying
			// it slides that heavy phase onto the corunner's sensitive
			// shuffle window (Figure 3(b)'s rise to g4).
			Phases: []Phase{
				{Frac: 0.40, DemandScale: resources.Vector{1.60, 1.0, 1.50, 1.55, 0.8, 1.0}, SensScale: 0.50},
				{Frac: 0.35, DemandScale: resources.Vector{0.55, 1.0, 0.55, 0.55, 1.3, 1.0}, SensScale: 1.80},
				{Frac: 0.25, DemandScale: resources.Vector{0.50, 1.0, 0.60, 0.60, 1.0, 0.9}, SensScale: 0.50},
			},
			ColdStartMs: 900,
		}},
	}
}

// FeatureGeneration returns a three-function SC pipeline standing in for
// FunctionBench's feature-generation application (the shape of workload
// #2 in Figure 2: ⑩ → ⑪ → ⑫). It is one of the Figure 5 training
// workloads.
func FeatureGeneration() *Workload {
	return &Workload{
		Name:          "feature-generation",
		Class:         SC,
		SoloDurationS: 200,
		Instances:     1,
		Entry:         0,
		Functions: []Function{
			{
				Name:        "extract",
				Demand:      resources.Vector{2, 1.5, 3, 5, 0.8, 40},
				Sensitivity: resources.Vector{0.55, 0.15, 0.45, 0.50, 0.30, 0.35},
				SoloIPC:     1.15,
				ColdStartMs: 600,
				Calls:       []Call{{Callee: 1, Mode: Sequence}},
			},
			{
				Name:        "transform",
				Demand:      resources.Vector{4, 2.0, 6, 10, 0.3, 5},
				Sensitivity: resources.Vector{0.70, 0.15, 0.65, 0.70, 0.10, 0.05},
				SoloIPC:     1.75,
				ColdStartMs: 700,
				Calls:       []Call{{Callee: 2, Mode: Sequence}},
			},
			{
				Name:        "aggregate",
				Demand:      resources.Vector{1.5, 1.0, 2, 3, 0.5, 20},
				Sensitivity: resources.Vector{0.50, 0.12, 0.40, 0.45, 0.25, 0.20},
				SoloIPC:     1.30,
				ColdStartMs: 500,
			},
		},
	}
}

// DataPipeline returns a two-function SC workload with the shape of
// Figure 2's workload #3 (⑬ → ⑭).
func DataPipeline() *Workload {
	return &Workload{
		Name:          "data-pipeline",
		Class:         SC,
		SoloDurationS: 90,
		Instances:     1,
		Entry:         0,
		Functions: []Function{
			{
				Name:        "ingest",
				Demand:      resources.Vector{1, 0.8, 1.5, 2.5, 1.5, 30},
				Sensitivity: resources.Vector{0.40, 0.12, 0.35, 0.40, 0.50, 0.30},
				SoloIPC:     0.95,
				ColdStartMs: 400,
				Calls:       []Call{{Callee: 1, Mode: Sequence}},
			},
			{
				Name:        "compact",
				Demand:      resources.Vector{2, 1.2, 3.0, 4.5, 0.2, 50},
				Sensitivity: resources.Vector{0.55, 0.15, 0.50, 0.55, 0.10, 0.40},
				SoloIPC:     1.25,
				ColdStartMs: 500,
			},
		},
	}
}

// WebSearch returns a search service in the shape the paper's Table 1
// cites (serverless information retrieval, Crane & Lin): a query
// frontend fanning out to two index shards with a rank/merge stage.
func WebSearch() *Workload {
	return &Workload{
		Name:     "web-search",
		Class:    LS,
		SLAp99Ms: 180,
		MaxQPS:   700,
		Entry:    0,
		Functions: []Function{
			{
				Name:          "query-frontend",
				Demand:        resources.Vector{0.7, 0.18, 1.2, 0.9, 0.35, 1},
				Sensitivity:   resources.Vector{0.50, 0.10, 0.35, 0.32, 0.28, 0.04},
				SoloIPC:       1.32,
				BaseServiceMs: 3,
				ColdStartMs:   350,
				Calls: []Call{
					{Callee: 1, Mode: Nested},
					{Callee: 2, Mode: Nested},
					{Callee: 3, Mode: Sequence},
				},
			},
			{
				Name:          "index-shard-a",
				Demand:        resources.Vector{1.4, 0.45, 3.5, 2.6, 0.25, 6},
				Sensitivity:   resources.Vector{0.65, 0.18, 0.75, 0.65, 0.20, 0.12},
				SoloIPC:       1.02,
				BaseServiceMs: 7,
				ColdStartMs:   650,
			},
			{
				Name:          "index-shard-b",
				Demand:        resources.Vector{1.4, 0.45, 3.5, 2.6, 0.25, 6},
				Sensitivity:   resources.Vector{0.65, 0.18, 0.75, 0.65, 0.20, 0.12},
				SoloIPC:       1.02,
				BaseServiceMs: 7,
				ColdStartMs:   650,
			},
			{
				Name:          "rank-merge",
				Demand:        resources.Vector{1.1, 0.30, 2.0, 2.2, 0.20, 1},
				Sensitivity:   resources.Vector{0.60, 0.12, 0.55, 0.55, 0.15, 0.04},
				SoloIPC:       1.48,
				BaseServiceMs: 4,
				ColdStartMs:   450,
			},
		},
	}
}

// ImageResize returns a bursty media-transcoding SC function, the
// canonical short serverless batch job.
func ImageResize() *Workload {
	return &Workload{
		Name:          "image-resize",
		Class:         SC,
		SoloDurationS: 45,
		Instances:     4,
		Entry:         0,
		Functions: []Function{{
			Name:        "resize",
			Demand:      resources.Vector{1.8, 0.7, 2.5, 4.5, 0.6, 25},
			Sensitivity: resources.Vector{0.65, 0.12, 0.50, 0.55, 0.25, 0.20},
			SoloIPC:     1.60,
			ColdStartMs: 500,
		}},
	}
}

// WordCount returns a two-stage map/reduce SC job with the classic
// shuffle-heavy middle, rounding out the Table 1 "bigdata" examples.
func WordCount() *Workload {
	return &Workload{
		Name:          "wordcount",
		Class:         SC,
		SoloDurationS: 150,
		Instances:     24,
		Entry:         0,
		Functions: []Function{
			{
				Name:        "wc-map",
				Demand:      resources.Vector{0.20, 0.30, 0.5, 0.45, 0.15, 8},
				Sensitivity: resources.Vector{0.50, 0.12, 0.45, 0.50, 0.20, 0.20},
				SoloIPC:     1.35,
				ColdStartMs: 700,
				Calls:       []Call{{Callee: 1, Mode: Sequence}},
				Phases: []Phase{
					{Frac: 0.70, DemandScale: resources.Vector{1.1, 1, 1, 1, 0.4, 1.2}, SensScale: 0.60},
					{Frac: 0.30, DemandScale: resources.Vector{0.8, 1, 1.2, 1.3, 2.0, 0.6}, SensScale: 1.60},
				},
			},
			{
				Name:        "wc-reduce",
				Demand:      resources.Vector{0.25, 0.35, 0.7, 0.6, 0.20, 12},
				Sensitivity: resources.Vector{0.55, 0.12, 0.50, 0.55, 0.22, 0.25},
				SoloIPC:     1.25,
				ColdStartMs: 700,
			},
		},
	}
}

// CronCleanup returns a periodic housekeeping BG job (log rotation,
// temp-file cleanup).
func CronCleanup() *Workload {
	return &Workload{
		Name:          "cron-cleanup",
		Class:         BG,
		SoloDurationS: 45,
		Instances:     1,
		Entry:         0,
		Functions: []Function{{
			Name:        "cleanup",
			Demand:      resources.Vector{0.25, 0.12, 0.3, 0.3, 0.05, 30},
			Sensitivity: resources.Vector{0.20, 0.05, 0.12, 0.12, 0.05, 0.35},
			SoloIPC:     0.85,
			ColdStartMs: 200,
		}},
	}
}

// IoTCollector returns a scheduled-background data-collection workload
// (Table 1's BG class): tiny, intermittent, no latency requirement.
func IoTCollector() *Workload {
	return &Workload{
		Name:          "iot-collector",
		Class:         BG,
		SoloDurationS: 30,
		Instances:     1,
		Entry:         0,
		Functions: []Function{{
			Name:        "collect",
			Demand:      resources.Vector{0.2, 0.1, 0.3, 0.3, 0.4, 5},
			Sensitivity: resources.Vector{0.20, 0.05, 0.15, 0.15, 0.40, 0.15},
			SoloIPC:     0.90,
			ColdStartMs: 200,
		}},
	}
}

// Monitor returns a scheduled-background monitoring workload (BG).
func Monitor() *Workload {
	return &Workload{
		Name:          "monitor",
		Class:         BG,
		SoloDurationS: 20,
		Instances:     1,
		Entry:         0,
		Functions: []Function{{
			Name:        "scrape",
			Demand:      resources.Vector{0.15, 0.08, 0.2, 0.2, 0.2, 2},
			Sensitivity: resources.Vector{0.18, 0.04, 0.12, 0.12, 0.30, 0.08},
			SoloIPC:     0.95,
			ColdStartMs: 150,
		}},
	}
}

// all returns every benchmark workload, in catalog listing order.
func all() []*Workload {
	return []*Workload{
		SocialNetwork(), ECommerce(), MLServing(), WebSearch(),
		MatMul(), DD(), Iperf(), VideoProcessing(), FloatOp(),
		LogisticRegression(), KMeans(), ImageResize(), WordCount(),
		FeatureGeneration(), DataPipeline(),
		IoTCollector(), Monitor(), CronCleanup(),
	}
}

// Catalog returns every benchmark workload, keyed by name.
func Catalog() map[string]*Workload {
	m := map[string]*Workload{}
	for _, w := range all() {
		m[w.Name] = w
	}
	return m
}

// LSPool returns the three latency-sensitive services of the §6.3 case
// study — social network, e-commerce, ML serving — that the
// trace-driven runs keep resident and the scenario generator trains on.
func LSPool() []*Workload { return []*Workload{SocialNetwork(), ECommerce(), MLServing()} }

// TracePool returns the nine SC and BG jobs the §6.3 case study submits
// over time beside LSPool's services.
func TracePool() []*Workload {
	return []*Workload{
		MatMul(), DD(), Iperf(), VideoProcessing(), FloatOp(),
		FeatureGeneration(), DataPipeline(), IoTCollector(), Monitor(),
	}
}

// MicroBenchmarks returns the four FunctionBench corunners of the
// Figure 3(a) volatility study: matmul (CPU), dd (disk), iperf
// (network) and video-processing (mixed).
func MicroBenchmarks() []*Workload {
	return []*Workload{MatMul(), DD(), Iperf(), VideoProcessing()}
}

// ByClass returns the catalog workloads of the given class, sorted by
// name order of the catalog listing.
func ByClass(c Class) []*Workload {
	var out []*Workload
	for _, w := range all() {
		if w.Class == c {
			out = append(out, w)
		}
	}
	return out
}
