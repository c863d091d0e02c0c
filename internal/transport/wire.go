// Package transport implements simmpi.Transport over TCP: the
// distributed counterpart of the in-process goroutine world, carrying
// the same tagged point-to-point messages and collectives between
// worker PROCESSES so the unmodified reconstruction engines (gradsync,
// halo) scale past one machine.
//
// Topology is a star: every worker holds one persistent connection to a
// coordinator hub, reused across reconstruction sessions, and the hub
// routes rank-to-rank frames, counts barrier entries, and computes
// allreduce sums in rank order (bit-identical to simmpi). The hub side
// lives in Hub (run by ptychoserve's grid coordinator), the worker side
// in Client (run by ptychoworker / internal/gridworker).
//
// Every frame is length-prefixed and CRC-protected; the byte-level
// layout is specified in docs/FORMATS.md ("PTGW wire frames").
// Blocking operations carry deadlines mirroring simmpi.ErrTimeout, so a
// deadlocked exchange or a vanished peer fails loudly — never hangs.
package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"time"

	"ptychopath/internal/wire"
)

// ProtoVersion is the wire-protocol generation. Hub and worker must
// speak the same one: the hub refuses any other version in HELLO, and
// the worker any other in WELCOME (ErrVersionMismatch) — mixed
// deployments fail fast instead of corrupting a run.
//
// v2 extended ITER: every rank (not just rank 0) reports per-iteration
// compute/comm timings in a 24-byte ITER payload, and SETUP carries a
// trace-context string.
//
// v3 switched the frame CRC to the Castagnoli generation
// (internal/wire): every frame after HELLO carries a hardware-speed
// CRC-32C. HELLO and the hub's version-refusal ERROR stay IEEE-framed,
// and the handshake reads accept either generation, so a worker of an
// older version is refused with ErrVersionMismatch rather than dropped
// as ErrFrameCorrupt.
//
// v4 sharded the session setup: each rank's SETUP carries only its own
// shard of the dataset and its warm-start tile, as two raw blobs after
// a small gob header (EncodeSetup), instead of one gob value embedding
// the whole dataset and object.
const ProtoVersion = 4

// frameMagic opens every frame on the wire.
var frameMagic = [4]byte{'P', 'T', 'G', 'W'}

// Frame types.
const (
	frameHello      = 0x01 // worker → hub: version + worker name
	frameWelcome    = 0x02 // hub → worker: version + assigned worker id
	frameSetup      = 0x03 // hub → worker: EncodeSetup(Setup) — a session begins
	frameData       = 0x04 // worker ↔ worker (routed): complex128 payload
	frameBarrier    = 0x05 // worker → hub: enter barrier
	frameBarrierOK  = 0x06 // hub → worker: barrier released
	frameReduce     = 0x07 // worker → hub: float64 contribution
	frameReduceOK   = 0x08 // hub → worker: float64 rank-ordered sum
	frameSnapshot   = 0x09 // rank 0 → hub: int64 iter + opaque object bytes
	frameSnapshotOK = 0x0A // hub → rank 0: uint8 ok + error string
	frameIter       = 0x0B // worker → hub, no reply: 16 B = rank 0 progress (int64 iter + float64 cost); 24 B = any rank's timings (int64 iter + int64 computeNS + int64 commNS)
	frameResult     = 0x0C // worker → hub: gob(RankResult) — session ends for this rank
	frameError      = 0x0D // either: uint8 code + message; aborts the session or conn
	frameCancel     = 0x0E // hub → worker: stop at the next iteration boundary
	frameGoodbye    = 0x0F // worker → hub: graceful teardown
)

// Error codes carried by frameError payloads.
const (
	codeGeneric  = 0x00
	codeVersion  = 0x01
	codePeerLost = 0x02
	codeAborted  = 0x03
)

// hubRank is the src/dst pseudo-rank of the coordinator hub in frame
// headers.
const hubRank = -1

// maxFramePayload bounds a single frame. The largest legitimate payload
// is a full extended-tile snapshot; 1 GiB leaves generous headroom
// while keeping a corrupt length field from committing the reader to an
// absurd allocation.
const maxFramePayload = 1 << 30

// handshakeTimeout bounds the hello/welcome exchange.
const handshakeTimeout = 10 * time.Second

// Typed transport errors. Blocking-operation timeouts additionally wrap
// simmpi.ErrTimeout so engine-level errors.Is checks behave identically
// on both transports.
var (
	// ErrVersionMismatch is returned by Dial when the hub speaks a
	// different ProtoVersion.
	ErrVersionMismatch = errors.New("transport: protocol version mismatch")
	// ErrFrameCorrupt is returned when a frame fails validation: bad
	// magic, a CRC that does not match the payload, an over-limit
	// length, or a stream truncated mid-frame.
	ErrFrameCorrupt = errors.New("transport: corrupt or truncated frame")
	// ErrPeerLost is surfaced by blocking operations when another rank
	// of the session disconnected mid-run — the session cannot
	// complete.
	ErrPeerLost = errors.New("transport: peer lost mid-session")
	// ErrSessionAborted is surfaced when the coordinator abandoned the
	// session (a rank reported failure, or the coordinator shut down).
	ErrSessionAborted = errors.New("transport: session aborted by coordinator")
	// ErrClosed is returned on operations against a closed endpoint.
	ErrClosed = errors.New("transport: connection closed")
)

// frame is one decoded wire frame.
type frame struct {
	typ      uint8
	src, dst int32
	tag      int32
	payload  []byte
}

// frameHeaderLen is the byte length of type..length, the CRC-covered
// fixed header that follows the magic.
const frameHeaderLen = 1 + 4 + 4 + 4 + 4

// appendFrame encodes one frame into dst:
//
//	magic[4] | type[1] | src[4] | dst[4] | tag[4] | len[4] | payload | crc[4]
//
// crc is the generation-g CRC-32 over type..payload. Appending lets a
// caller batch several frames into one scratch buffer and hand the
// kernel a single write.
func appendFrame(dst []byte, f frame, g wire.Gen) ([]byte, error) {
	if len(f.payload) > maxFramePayload {
		return dst, fmt.Errorf("%w: payload %d exceeds %d", ErrFrameCorrupt, len(f.payload), maxFramePayload)
	}
	start := len(dst)
	dst = appendFrameHeader(dst, f)
	dst = append(dst, f.payload...)
	return wire.AppendUint32(dst, wire.Checksum(g, dst[start+4:])), nil
}

// appendFrameHeader appends magic through len, the part of a frame
// that precedes its payload.
func appendFrameHeader(dst []byte, f frame) []byte {
	dst = append(dst, frameMagic[:]...)
	dst = append(dst, f.typ)
	dst = wire.AppendUint32(dst, uint32(f.src))
	dst = wire.AppendUint32(dst, uint32(f.dst))
	dst = wire.AppendUint32(dst, uint32(f.tag))
	return wire.AppendUint32(dst, uint32(len(f.payload)))
}

// writeFrame encodes and writes one current-generation frame. The
// caller serializes writes per connection. Hot paths batch through
// appendFrame instead.
func writeFrame(w io.Writer, f frame) error {
	return writeFrameGen(w, f, wire.GenCurrent)
}

// writeFrameGen writes one frame under an explicit checksum
// generation. Handshake frames (HELLO, and the hub's version-refusal
// ERROR) pass wire.GenIEEE so a peer of either generation can parse
// them. The payload is written in place, never copied: on a TCP
// connection header, payload and CRC leave in one vectored write, so a
// SETUP's shard costs no second buffer.
func writeFrameGen(w io.Writer, f frame, g wire.Gen) error {
	if len(f.payload) > maxFramePayload {
		return fmt.Errorf("%w: payload %d exceeds %d", ErrFrameCorrupt, len(f.payload), maxFramePayload)
	}
	hdr := appendFrameHeader(make([]byte, 0, 4+frameHeaderLen), f)
	crc := wire.AppendUint32(nil, wire.Update(g, wire.Checksum(g, hdr[4:]), f.payload))
	bufs := net.Buffers{hdr, f.payload, crc}
	_, err := bufs.WriteTo(w)
	return err
}

// frameReader decodes frames from one connection, reusing a payload
// scratch buffer across reads: a returned frame's payload is valid
// only until the next read, so handlers must copy anything they
// retain (DATA payloads are copied by bytesToComplex, gob payloads by
// decoding).
type frameReader struct {
	r       io.Reader
	scratch []byte
}

// read reads and validates one session frame. Truncation, bad magic,
// an over-limit length and a CRC mismatch all return ErrFrameCorrupt;
// a clean EOF between frames returns io.EOF. Only the current
// (Castagnoli) checksum generation is accepted.
func (d *frameReader) read() (frame, error) {
	return d.decode(false)
}

// readFrame reads one handshake frame (HELLO, WELCOME or the hub's
// version refusal) with a throwaway scratch. Unlike a session read it
// accepts either checksum generation: an older worker's IEEE-framed
// HELLO must reach the version check.
func readFrame(r io.Reader) (frame, error) {
	d := frameReader{r: r}
	return d.decode(true)
}

// decode is read, additionally accepting an IEEE CRC when handshake
// is set.
func (d *frameReader) decode(handshake bool) (frame, error) {
	var hdr [4 + frameHeaderLen]byte
	if _, err := io.ReadFull(d.r, hdr[:]); err != nil {
		if err == io.EOF {
			return frame{}, io.EOF
		}
		return frame{}, fmt.Errorf("%w: truncated header: %v", ErrFrameCorrupt, err)
	}
	if [4]byte(hdr[:4]) != frameMagic {
		return frame{}, fmt.Errorf("%w: bad magic %q", ErrFrameCorrupt, hdr[:4])
	}
	f := frame{
		typ: hdr[4],
		src: int32(binary.LittleEndian.Uint32(hdr[5:])),
		dst: int32(binary.LittleEndian.Uint32(hdr[9:])),
		tag: int32(binary.LittleEndian.Uint32(hdr[13:])),
	}
	n := binary.LittleEndian.Uint32(hdr[17:])
	if n > maxFramePayload {
		return frame{}, fmt.Errorf("%w: payload length %d exceeds %d", ErrFrameCorrupt, n, maxFramePayload)
	}
	// Payload and trailing CRC in one capped read: memory tracks the
	// bytes that actually arrive, so a lying length cannot balloon it.
	buf, err := wire.ReadCapped(d.r, d.scratch, int64(n)+4)
	if err != nil {
		return frame{}, fmt.Errorf("%w: truncated payload: %v", ErrFrameCorrupt, err)
	}
	d.scratch = buf
	payload := buf[:n]
	got := binary.LittleEndian.Uint32(buf[n:])
	// The CRC covers type..payload — continue it across the two spans.
	want := wire.Update(wire.GenCurrent, wire.Checksum(wire.GenCurrent, hdr[4:]), payload)
	if got != want && !(handshake && got == wire.Update(wire.GenIEEE, wire.Checksum(wire.GenIEEE, hdr[4:]), payload)) {
		return frame{}, fmt.Errorf("%w: crc %08x, want %08x", ErrFrameCorrupt, got, want)
	}
	f.payload = payload
	return f, nil
}

// complexToBytes serializes a []complex128 payload as interleaved
// little-endian float64 pairs — exact (bit-preserving) both ways.
func complexToBytes(data []complex128) []byte {
	out := make([]byte, 16*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint64(out[16*i:], math.Float64bits(real(v)))
		binary.LittleEndian.PutUint64(out[16*i+8:], math.Float64bits(imag(v)))
	}
	return out
}

func bytesToComplex(b []byte) ([]complex128, error) {
	if len(b)%16 != 0 {
		return nil, fmt.Errorf("%w: data payload %d bytes is not a complex128 array", ErrFrameCorrupt, len(b))
	}
	out := make([]complex128, len(b)/16)
	for i := range out {
		out[i] = complex(
			math.Float64frombits(binary.LittleEndian.Uint64(b[16*i:])),
			math.Float64frombits(binary.LittleEndian.Uint64(b[16*i+8:])),
		)
	}
	return out, nil
}

// errorPayload encodes a frameError payload.
func errorPayload(code uint8, msg string) []byte {
	return append([]byte{code}, msg...)
}

// decodeError maps a frameError payload to a typed error.
func decodeError(payload []byte) error {
	code, msg := uint8(codeGeneric), ""
	if len(payload) > 0 {
		code, msg = payload[0], string(payload[1:])
	}
	switch code {
	case codeVersion:
		return fmt.Errorf("%w: %s", ErrVersionMismatch, msg)
	case codePeerLost:
		return fmt.Errorf("%w: %s", ErrPeerLost, msg)
	case codeAborted:
		return fmt.Errorf("%w: %s", ErrSessionAborted, msg)
	default:
		return fmt.Errorf("transport: remote error: %s", msg)
	}
}

// Setup is the job description a coordinator sends each worker to open
// a session: which rank it is, the mesh geometry, the engine
// parameters, and the rank's serialized share of the dataset and
// initial object. Problem and Init are opaque byte blobs (PTYCHOv1 and
// OBJCKv1 respectively — see internal/dataio and docs/FORMATS.md); the
// transport does not interpret them.
type Setup struct {
	// JobID names the coordinator-side job this session executes.
	JobID string
	// Rank and Size place this worker in the session's world; the hub
	// fills them in at StartSession.
	Rank int
	Size int

	// Algorithm selects the engine: "gd" (gradsync) or "hve" (halo).
	Algorithm string
	// MeshRows, MeshCols and Halo reproduce the coordinator's tile
	// mesh exactly on every rank.
	MeshRows, MeshCols int
	Halo               int
	HaloWidth          int // hve exchange halo (0 = mesh halo)
	ExtraRows          int // hve redundant scan rows
	// StepSize through SnapshotEvery mirror the engine Options of the
	// in-process run.
	StepSize           float64
	Iterations         int
	RoundsPerIteration int
	IntraWorkers       int
	SnapshotEvery      int
	// TimeoutMS bounds the session's blocking transport operations
	// (milliseconds; 0 keeps the worker's dial-time default).
	TimeoutMS int64
	// Trace is the coordinator's trace context (the job's request ID):
	// workers tag their logs with it so one grep follows a request
	// from HTTP accept through every rank. Empty disables nothing —
	// timings are always reported.
	Trace string

	// Problem is this rank's PTYCHOv1 shard of the dataset, cut by the
	// coordinator (engine.Plan.Shard): the locations the rank owns,
	// plus hve's extra rows, with their global indices and
	// measurements, on the full image geometry. A rank receives and
	// holds only the frames it computes on.
	Problem []byte
	// Init is the OBJCKv1 warm start restricted to the rank's
	// halo-extended tile (engine.Plan.TileBounds).
	Init []byte
}

// EncodeSetup returns the SETUP frame payload for s: a uint32 byte
// length and the gob encoding of s without its blobs, then a uint32
// byte length and Problem, then Init to the end of the payload. The
// blobs travel as raw bytes, so no dataset-sized buffer passes through
// gob on either side.
func EncodeSetup(s *Setup) ([]byte, error) {
	hdr := *s
	hdr.Problem, hdr.Init = nil, nil
	var buf bytes.Buffer
	buf.Write(make([]byte, 4)) // backfilled with the gob length
	if err := gob.NewEncoder(&buf).Encode(&hdr); err != nil {
		return nil, fmt.Errorf("transport: encoding setup: %w", err)
	}
	gobLen := buf.Len() - 4
	out := wire.Grow(buf.Bytes(), 4+len(s.Problem)+len(s.Init))
	binary.LittleEndian.PutUint32(out, uint32(gobLen))
	off := 4 + gobLen
	binary.LittleEndian.PutUint32(out[off:], uint32(len(s.Problem)))
	off += 4 + copy(out[off+4:], s.Problem)
	copy(out[off:], s.Init)
	return out, nil
}

// decodeSetup parses a SETUP payload (EncodeSetup). Problem and Init
// alias payload, so the caller must hand the payload over rather than
// reuse it.
func decodeSetup(payload []byte) (*Setup, error) {
	short := func() error {
		return fmt.Errorf("%w: setup payload of %d bytes is truncated", ErrFrameCorrupt, len(payload))
	}
	if len(payload) < 4 {
		return nil, short()
	}
	gobLen := uint64(le32(payload))
	if gobLen > uint64(len(payload)-4) {
		return nil, short()
	}
	var s Setup
	if err := decodeGob(payload[4:4+gobLen], &s); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFrameCorrupt, err)
	}
	rest := payload[4+gobLen:]
	if len(rest) < 4 || uint64(le32(rest)) > uint64(len(rest)-4) {
		return nil, short()
	}
	probLen := le32(rest)
	s.Problem = rest[4 : 4+probLen : 4+probLen]
	s.Init = rest[4+probLen : len(rest) : len(rest)]
	return &s, nil
}

// RankResult is one rank's outcome, shipped worker → hub when its part
// of the session finishes (successfully or not). Tile is an opaque
// OBJCKv1 blob of the rank's extended-tile slices.
type RankResult struct {
	// Rank identifies the sender within the session.
	Rank int
	// Err, when non-empty, reports the rank failed; other fields may be
	// zero. A failing rank still reports in-band — it never tears down
	// the connection.
	Err string
	// Cancelled marks a collective Ctx-cancellation stop with partial
	// state in Tile.
	Cancelled bool

	// CostHistory is the all-reduced global cost per iteration.
	CostHistory []float64
	// Locations counts the rank's assigned probe locations (for hve,
	// including redundant ones; Owned excludes them).
	Locations, Owned int
	// MemBytes estimates the rank's resident footprint; ComputeNS and
	// CommNS split its wall-clock between gradient work and passes.
	MemBytes          int64
	ComputeNS, CommNS int64
	// SentBytes and SentMessages count the rank's outgoing payload
	// traffic.
	SentBytes, SentMessages int64
	// Tile is the rank's extended-tile object as OBJCKv1 bytes.
	Tile []byte
}

func encodeGob(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("transport: encoding %T: %w", v, err)
	}
	return buf.Bytes(), nil
}

func decodeGob(b []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(v); err != nil {
		return fmt.Errorf("transport: decoding %T: %w", v, err)
	}
	return nil
}
