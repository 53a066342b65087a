package obs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"gsight/internal/telemetry"
)

// Flight-recorder binary format (little-endian, packed, no padding):
//
//	header  "GFR1" | version u16 | servers u16 | stepS f64      (16 B)
//	frame   simTimeS f64 | step u32 | flags u8 | activeServers u16
//	        | pending u32 | density f32 | goodDensity f32
//	        | cpuUtil f32 | memUtil f32                          (35 B)
//	        then per server: cpuDemand f32 | memUsed f32 | flags u8
//
// Every frame is the same size, so readers can seek by step and a
// checkpointed (frames, bytes) offset identifies an exact truncation
// point.
const (
	flightMagic   = "GFR1"
	FlightVersion = 1

	// Frame flags.
	FrameDegraded      = 1 << 0 // platform in degraded placement mode
	FramePredictorDown = 1 << 1 // predictor fault window active

	// Per-server flags.
	ServerDown = 1 << 0 // node crashed
	ServerSlow = 1 << 1 // straggler (slowdown factor active)
)

const flightHeaderSize = 16

// flightFrameSize is the fixed frame size for a cluster of n servers.
func flightFrameSize(n int) int { return 35 + 9*n }

// Frame is one step sample: the cluster state the flight recorder
// captures every platform step.
type Frame struct {
	SimTimeS      float64
	Step          uint32
	Flags         uint8
	ActiveServers uint16
	// Pending is the batch-job submissions still ahead in the arrival
	// timeline (not the raw engine queue depth, which would leak
	// crash-schedule events and break crash/resume byte-identity).
	Pending     uint32
	Density     float32
	GoodDensity float32
	CPUUtil     float32
	MemUtil     float32
	// Per-server columns, each len == header servers.
	CPUDemand   []float32
	MemUsed     []float32
	ServerFlags []uint8
}

// Flight is the step-sampled flight recorder: one fixed-size binary
// frame per platform step. Like the tracer it is an encoder over a
// telemetry.Stream, whose preamble is the header.
type Flight struct {
	s       *telemetry.Stream
	servers int
}

// NewFlight records frames for a servers-sized cluster stepping every
// stepS simulated seconds. Callers own w's lifecycle.
func NewFlight(w io.Writer, servers int, stepS float64) *Flight {
	h := append(make([]byte, 0, flightHeaderSize), flightMagic...)
	h = binary.LittleEndian.AppendUint16(h, FlightVersion)
	h = binary.LittleEndian.AppendUint16(h, uint16(servers))
	h = binary.LittleEndian.AppendUint64(h, floatBits(stepS))
	return &Flight{s: telemetry.NewStream(w, h, 0), servers: servers}
}

// Stream returns the recorder's counted stream (frames recorded, first
// write error). Nil for a nil recorder, which the stream's methods
// accept.
func (f *Flight) Stream() *telemetry.Stream {
	if f == nil {
		return nil
	}
	return f.s
}

// Record appends one frame. The per-server slices must be servers
// long; extra fields in fr beyond the format are ignored.
func (f *Flight) Record(fr *Frame) {
	if f == nil {
		return
	}
	b, _ := f.s.Begin()
	b = binary.LittleEndian.AppendUint64(b, floatBits(fr.SimTimeS))
	b = binary.LittleEndian.AppendUint32(b, fr.Step)
	b = append(b, fr.Flags)
	b = binary.LittleEndian.AppendUint16(b, fr.ActiveServers)
	b = binary.LittleEndian.AppendUint32(b, fr.Pending)
	b = binary.LittleEndian.AppendUint32(b, float32Bits(fr.Density))
	b = binary.LittleEndian.AppendUint32(b, float32Bits(fr.GoodDensity))
	b = binary.LittleEndian.AppendUint32(b, float32Bits(fr.CPUUtil))
	b = binary.LittleEndian.AppendUint32(b, float32Bits(fr.MemUtil))
	for s := 0; s < f.servers; s++ {
		b = binary.LittleEndian.AppendUint32(b, float32Bits(fr.CPUDemand[s]))
		b = binary.LittleEndian.AppendUint32(b, float32Bits(fr.MemUsed[s]))
		b = append(b, fr.ServerFlags[s])
	}
	f.s.End(b)
}

// FlightData is a fully decoded recording.
type FlightData struct {
	Version int
	Servers int
	StepS   float64
	Frames  []Frame
}

// ReadFlight decodes a flight recording. A truncated final frame —
// possible after a crash without a clean flush — is dropped, matching
// the tracer's truncation tolerance. An empty stream (no header yet)
// decodes as an empty recording.
func ReadFlight(r io.Reader) (*FlightData, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return &FlightData{}, nil
	}
	if len(data) < flightHeaderSize || string(data[:4]) != flightMagic {
		return nil, errors.New("obs: not a flight recording (bad magic)")
	}
	version := int(binary.LittleEndian.Uint16(data[4:]))
	if version != FlightVersion {
		return nil, fmt.Errorf("obs: flight recording schema %d not supported (want %d)", version, FlightVersion)
	}
	servers := int(binary.LittleEndian.Uint16(data[6:]))
	fd := &FlightData{
		Version: version,
		Servers: servers,
		StepS:   bitsFloat(binary.LittleEndian.Uint64(data[8:])),
	}
	fsz := flightFrameSize(servers)
	for off := flightHeaderSize; off+fsz <= len(data); off += fsz {
		b := data[off : off+fsz]
		fr := Frame{
			SimTimeS:      bitsFloat(binary.LittleEndian.Uint64(b)),
			Step:          binary.LittleEndian.Uint32(b[8:]),
			Flags:         b[12],
			ActiveServers: binary.LittleEndian.Uint16(b[13:]),
			Pending:       binary.LittleEndian.Uint32(b[15:]),
			Density:       bitsFloat32(binary.LittleEndian.Uint32(b[19:])),
			GoodDensity:   bitsFloat32(binary.LittleEndian.Uint32(b[23:])),
			CPUUtil:       bitsFloat32(binary.LittleEndian.Uint32(b[27:])),
			MemUtil:       bitsFloat32(binary.LittleEndian.Uint32(b[31:])),
			CPUDemand:     make([]float32, servers),
			MemUsed:       make([]float32, servers),
			ServerFlags:   make([]uint8, servers),
		}
		for s := 0; s < servers; s++ {
			p := 35 + 9*s
			fr.CPUDemand[s] = bitsFloat32(binary.LittleEndian.Uint32(b[p:]))
			fr.MemUsed[s] = bitsFloat32(binary.LittleEndian.Uint32(b[p+4:]))
			fr.ServerFlags[s] = b[p+8]
		}
		fd.Frames = append(fd.Frames, fr)
	}
	return fd, nil
}
