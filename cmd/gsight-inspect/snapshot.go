package main

import (
	"errors"
	"fmt"
	"os"

	"gsight/internal/core"
	"gsight/internal/persist"
)

// cmdSnapshot prints what a checkpoint file holds, now that the file is
// binary and jq no longer opens it: the envelope header, the
// controller's JSON section verbatim (pipe it to jq), and the counts of
// the predictor blob. Given a checkpoint or data directory it reads the
// newest generation. Strictly read-only — unlike the controllers'
// loader it never deletes a file it cannot verify — and it reads
// through the decoders the controllers restore with.
func cmdSnapshot(args []string) error {
	if len(args) != 1 {
		return errors.New("usage: gsight-inspect snapshot <file|dir>")
	}
	path := args[0]
	if st, err := os.Stat(path); err != nil {
		return err
	} else if st.IsDir() {
		snaps, err := persist.Snapshots(path)
		if err != nil {
			return err
		}
		if len(snaps) == 0 {
			return fmt.Errorf("%s: no snap-*.ckpt inside", path)
		}
		fmt.Printf("generations on disk:")
		for _, s := range snaps {
			fmt.Printf(" %d", s.Seq)
		}
		fmt.Println()
		path = snaps[len(snaps)-1].Path
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	fmt.Printf("file:       %s (%d bytes)\n", path, len(data))
	h, payload, err := persist.DecodeSnapshotHeader(data)
	if err != nil {
		return err // names the format found, or what failed to verify
	}
	fmt.Printf("format:     %d\nseq:        %d\npayload:    %d bytes\nsha256:     %x\nchecksum:   ok\n",
		h.Format, h.Seq, h.PayloadLen, h.SHA256)

	ctl, blob, err := persist.SplitPayload(payload)
	if err != nil {
		return err
	}
	fmt.Printf("controller: %d bytes of JSON\n%s\n", len(ctl), ctl)
	if len(blob) == 0 {
		fmt.Println("predictor:  none (the controller ran without one)")
		return nil
	}
	sum, err := core.SummarizeCheckpoint(blob)
	if err != nil {
		return err
	}
	fmt.Printf("predictor:  %d bytes, blob version %d, %d features per row\n", len(blob), sum.Version, sum.Dim)
	fmt.Printf("  %-5s %-8s %8s %6s %12s %13s\n", "kind", "trained", "seen", "trees", "window rows", "pending rows")
	for _, k := range sum.Kinds {
		fmt.Printf("  %-5v %-8v %8d %6d %12d %13d\n", k.Kind, k.Trained, k.Seen, k.Trees, k.WindowRows, k.PendingRows)
	}
	fmt.Printf("  tier-0: generation %d, %d ring rows, %d seen, trained %v\n",
		sum.Tier0Gen, sum.Tier0Rows, sum.Tier0Seen, sum.Tier0Trained)
	return nil
}
