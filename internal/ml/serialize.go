package ml

import (
	"encoding/json"
	"fmt"
	"io"
)

// Serialization of trained tree models: a production predictor trains
// once on the bootstrap dataset (a ~2-person-hour artifact in the
// paper, §6.4) and must survive controller restarts without retraining.

// TreeNodeExport is the stable form of one CART node.
type TreeNodeExport struct {
	Feature int     `json:"f"`
	Thresh  float64 `json:"t,omitempty"`
	Left    int32   `json:"l,omitempty"`
	Right   int32   `json:"r,omitempty"`
	Value   float64 `json:"v"`
}

// TreeExport is the stable form of a trained tree.
type TreeExport struct {
	Dim        int              `json:"dim"`
	Nodes      []TreeNodeExport `json:"nodes"`
	Importance []float64        `json:"importance,omitempty"`
}

// Export snapshots the trained tree.
func (t *Tree) Export() TreeExport {
	out := TreeExport{
		Dim:        t.dim,
		Nodes:      make([]TreeNodeExport, len(t.nodes)),
		Importance: append([]float64(nil), t.importance...),
	}
	for i, n := range t.nodes {
		out.Nodes[i] = TreeNodeExport{
			Feature: n.feature, Thresh: n.thresh,
			Left: n.left, Right: n.right, Value: n.value,
		}
	}
	return out
}

// ImportTree reconstructs a tree from its export.
func ImportTree(e TreeExport) (*Tree, error) {
	t := &Tree{dim: e.Dim}
	t.nodes = make([]treeNode, len(e.Nodes))
	for i, n := range e.Nodes {
		if n.Feature >= e.Dim {
			return nil, fmt.Errorf("ml: node %d splits on feature %d beyond dim %d", i, n.Feature, e.Dim)
		}
		if int(n.Left) >= len(e.Nodes) || int(n.Right) >= len(e.Nodes) {
			return nil, fmt.Errorf("ml: node %d has child out of range", i)
		}
		t.nodes[i] = treeNode{
			feature: n.Feature, thresh: n.Thresh,
			left: n.Left, right: n.Right, value: n.Value,
		}
	}
	t.importance = append([]float64(nil), e.Importance...)
	return t, nil
}

// ForestExport is the stable form of a trained forest. The incremental
// window is deliberately not persisted: a reloaded forest predicts
// immediately and rebuilds its window from fresh observations.
type ForestExport struct {
	Version int          `json:"version"`
	Config  ForestConfig `json:"config"`
	Dim     int          `json:"dim"`
	Trees   []TreeExport `json:"trees"`
}

// Export snapshots the trained forest.
func (f *Forest) Export() ForestExport {
	out := ForestExport{Version: 1, Config: f.cfg, Dim: f.dim}
	for _, t := range f.trees {
		out.Trees = append(out.Trees, t.Export())
	}
	return out
}

// ImportForest reconstructs a forest from its export. The forest is
// immediately usable for prediction; the first Update after import
// rebuilds the training window from the new batch alone.
func ImportForest(e ForestExport) (*Forest, error) {
	if e.Version != 1 {
		return nil, fmt.Errorf("ml: unsupported forest version %d", e.Version)
	}
	if e.Config.Window > maxWindowRows {
		return nil, ErrWindowTooLarge
	}
	f := NewForest(e.Config)
	f.dim = e.Dim
	for i, te := range e.Trees {
		t, err := ImportTree(te)
		if err != nil {
			return nil, fmt.Errorf("ml: tree %d: %w", i, err)
		}
		f.trees = append(f.trees, t)
	}
	f.fitted = len(f.trees) > 0
	return f, nil
}

// WriteForest serializes a forest as JSON.
func WriteForest(w io.Writer, f *Forest) error {
	return json.NewEncoder(w).Encode(f.Export())
}

// ReadForest deserializes a forest from JSON.
func ReadForest(r io.Reader) (*Forest, error) {
	var e ForestExport
	if err := json.NewDecoder(r).Decode(&e); err != nil {
		return nil, fmt.Errorf("ml: decode forest: %w", err)
	}
	return ImportForest(e)
}
