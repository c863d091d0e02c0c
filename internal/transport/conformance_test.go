package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"ptychopath/internal/wire"
	"ptychopath/internal/wire/wiretest"
)

// conformanceFrame is a fixed routed-data frame used for the golden
// vectors: deterministic header fields and a payload long enough to
// exercise the CRC over both header and body.
func conformanceFrame() frame {
	return frame{
		typ: frameData, src: 1, dst: 2, tag: 7,
		payload: []byte("ptychowire golden frame payload 0123456789"),
	}
}

// TestGoldenFrame pins the PTGW encoding under both checksum
// generations (IEEE survives for HELLO and the version refusal) and
// proves re-encode is bit-identical. The handshake reader accepts both
// generations and decodes them to the same frame; the session reader
// accepts only the current one.
func TestGoldenFrame(t *testing.T) {
	f := conformanceFrame()
	current, err := appendFrame(nil, f, wire.GenCurrent)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := appendFrame(nil, f, wire.GenIEEE)
	if err != nil {
		t.Fatal(err)
	}
	wiretest.Golden(t, "frame_castagnoli.golden", current)
	wiretest.Golden(t, "frame_ieee.golden", legacy)
	if bytes.Equal(current, legacy) {
		t.Fatal("generations should differ in the trailing CRC")
	}
	if !bytes.Equal(current[:len(current)-4], legacy[:len(legacy)-4]) {
		t.Fatal("generations should differ only in the trailing CRC")
	}

	rd := frameReader{r: bytes.NewReader(legacy)}
	if _, err := rd.read(); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("session read of an IEEE frame: %v, want ErrFrameCorrupt", err)
	}
	for name, raw := range map[string][]byte{"castagnoli": current, "ieee": legacy} {
		got, err := readFrame(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.typ != f.typ || got.src != f.src || got.dst != f.dst || got.tag != f.tag || !bytes.Equal(got.payload, f.payload) {
			t.Fatalf("%s: decoded frame differs: %+v", name, got)
		}
		reenc, err := appendFrame(nil, got, wire.GenCurrent)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reenc, current) {
			t.Fatalf("%s: re-encode is not bit-identical to the current generation", name)
		}
	}
}

// TestFrameCodecAllocs is the allocation-budget guard for the
// transport hot path: appending into a warm batch buffer is
// zero-alloc, and a warm frameReader spends at most the payload slice
// header it hands back.
func TestFrameCodecAllocs(t *testing.T) {
	f := conformanceFrame()
	buf, err := appendFrame(nil, f, wire.GenCurrent)
	if err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf...)

	encAllocs := testing.AllocsPerRun(100, func() {
		buf, err = appendFrame(buf[:0], f, wire.GenCurrent)
		if err != nil {
			t.Fatal(err)
		}
	})
	if encAllocs > 0 {
		t.Errorf("warm appendFrame: %.0f allocs/op, budget 0", encAllocs)
	}

	r := bytes.NewReader(raw)
	rd := frameReader{r: r}
	if _, err := rd.read(); err != nil {
		t.Fatal(err)
	}
	decAllocs := testing.AllocsPerRun(100, func() {
		r.Reset(raw)
		if _, err := rd.read(); err != nil {
			t.Fatal(err)
		}
	})
	if decAllocs > 2 {
		t.Errorf("warm frameReader.read: %.0f allocs/op, budget 2", decAllocs)
	}
}

// readRawFrame reads one frame without verifying its CRC, so a test
// can see which checksum generation the sender used.
func readRawFrame(t *testing.T, r io.Reader) (typ uint8, payload []byte, crc uint32, covered []byte) {
	t.Helper()
	var hdr [4 + frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		t.Fatal(err)
	}
	n := binary.LittleEndian.Uint32(hdr[17:])
	body := make([]byte, int(n)+4)
	if _, err := io.ReadFull(r, body); err != nil {
		t.Fatal(err)
	}
	payload, crc = body[:n], binary.LittleEndian.Uint32(body[n:])
	return hdr[4], payload, crc, append(append([]byte(nil), hdr[4:]...), payload...)
}

// TestHubRefusesV2Worker: the hub speaks exactly ProtoVersion. A v2 or
// v3 worker's IEEE-framed HELLO is refused with an IEEE-framed version
// ERROR (so the old worker can parse it), and after the handshake an
// IEEE-CRC frame is corrupt on either end of the connection.
func TestHubRefusesV2Worker(t *testing.T) {
	h := startHub(t)
	dialHub := func(t *testing.T) net.Conn {
		conn, err := net.Dial("tcp", h.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conn.SetDeadline(time.Now().Add(testTimeout))
		return conn
	}

	// v2 workers frame with IEEE CRCs; v3 workers with Castagnoli CRCs
	// but the unsharded SETUP. Both are refused at HELLO.
	for _, old := range []uint32{2, 3} {
		t.Run(fmt.Sprintf("v%d hello", old), func(t *testing.T) {
			conn := dialHub(t)
			hello := append(uint32le(old), []byte(fmt.Sprintf("v%d-worker", old))...)
			if err := writeFrameGen(conn, frame{typ: frameHello, dst: hubRank, payload: hello}, wire.GenIEEE); err != nil {
				t.Fatal(err)
			}
			typ, payload, crc, covered := readRawFrame(t, conn)
			if typ != frameError {
				t.Fatalf("frame type 0x%02x, want frameError", typ)
			}
			if crc != wire.Checksum(wire.GenIEEE, covered) || crc == wire.Checksum(wire.GenCastagnoli, covered) {
				t.Fatal("version refusal is not IEEE-framed")
			}
			if len(payload) == 0 || payload[0] != codeVersion {
				t.Fatalf("refusal payload %q, want code %d", payload, codeVersion)
			}
			if err := decodeError(payload); !errors.Is(err, ErrVersionMismatch) {
				t.Fatalf("decoded %v, want ErrVersionMismatch", err)
			}
			if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("hub kept the refused connection open: %v", err)
			}
			if len(h.Workers()) != 0 {
				t.Fatal("refused worker was registered")
			}
		})
	}

	t.Run("ieee frame to hub", func(t *testing.T) {
		conn := dialHub(t)
		hello := append(uint32le(ProtoVersion), []byte("v4-worker")...)
		if err := writeFrameGen(conn, frame{typ: frameHello, dst: hubRank, payload: hello}, wire.GenIEEE); err != nil {
			t.Fatal(err)
		}
		// The WELCOME already passes the Castagnoli-only session reader.
		rd := frameReader{r: conn}
		if fr, err := rd.read(); err != nil || fr.typ != frameWelcome {
			t.Fatalf("welcome: %+v, %v", fr, err)
		}
		waitWorkers(t, h, 1)
		if err := writeFrameGen(conn, frame{typ: frameBarrier, dst: hubRank}, wire.GenIEEE); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("hub kept a connection that sent an IEEE session frame: %v", err)
		}
		waitWorkers(t, h, 0)
	})

	t.Run("ieee frame to worker", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			readFrame(c) // hello
			writeFrame(c, frame{typ: frameWelcome, src: hubRank,
				payload: append(uint32le(ProtoVersion), uint32le(1)...)})
			writeFrameGen(c, frame{typ: frameData, src: 0, tag: 1, payload: complexToBytes([]complex128{1})}, wire.GenIEEE)
			io.Copy(io.Discard, c) // hold the connection until the worker hangs up
		}()
		c, err := Dial(ln.Addr().String(), DialOptions{Timeout: testTimeout})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Recv(0, 1); !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("recv after an IEEE session frame: got %v, want ErrFrameCorrupt", err)
		}
	})
}

// FuzzReadFrame hammers the frame decoder with the shared framing
// corpus plus PTGW-specific attacks (the length field is a uint32, so
// the lying lengths are patched separately). Every outcome must be a
// typed error or a faithful frame — never a panic, never an
// unbounded allocation.
func FuzzReadFrame(f *testing.F) {
	fr := conformanceFrame()
	current, err := appendFrame(nil, fr, wire.GenCurrent)
	if err != nil {
		f.Fatal(err)
	}
	legacy, err := appendFrame(nil, fr, wire.GenIEEE)
	if err != nil {
		f.Fatal(err)
	}
	// Shared corpus: truncations at the structural boundaries around
	// the length field (offset 17 = magic+type+src+dst+tag), CRC
	// bit-flips, and 8-byte length lies that also clobber payload.
	for _, m := range wiretest.Mutations(current, 17) {
		f.Add(m)
	}
	for _, m := range wiretest.Mutations(legacy, 17) {
		f.Add(m)
	}
	// PTGW-specific: the real length field is a uint32.
	f.Add(wiretest.PatchUint32(current, 17, maxFramePayload+1))
	f.Add(wiretest.PatchUint32(current, 17, 0xFFFFFFFF))
	f.Add(wiretest.PatchUint32(current, 17, 3))
	f.Add([]byte("PTGW"))
	f.Add([]byte("NOPE then some bytes that are long enough for a header"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		rd := frameReader{r: bytes.NewReader(data)}
		for {
			got, err := rd.read()
			if err != nil {
				return // typed rejection is fine; panics are not
			}
			if len(got.payload) > maxFramePayload {
				t.Fatalf("read returned %d payload bytes past the cap", len(got.payload))
			}
			// A frame the reader accepts must survive re-encode →
			// re-read unchanged.
			reenc, err := appendFrame(nil, got, wire.GenCurrent)
			if err != nil {
				t.Fatalf("accepted frame fails re-encode: %v", err)
			}
			back, err := readFrame(bytes.NewReader(reenc))
			if err != nil {
				t.Fatalf("re-encoded frame fails re-read: %v", err)
			}
			if back.typ != got.typ || back.src != got.src || back.dst != got.dst || back.tag != got.tag || !bytes.Equal(back.payload, got.payload) {
				t.Fatal("frame did not survive re-encode round trip")
			}
		}
	})
}
