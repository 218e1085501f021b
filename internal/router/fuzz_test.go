package router

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// FuzzRouteWire reads its input two ways. As a message list (see
// fuzzMsgs), encode then decode must give the messages back exactly.
// As a raw wire of little-endian float64 words, decoding must either
// succeed and re-encode to the same words, or panic with a router
// message: a malformed wire may never read out of bounds. The
// committed corpus in testdata/fuzz/FuzzRouteWire holds valid wires,
// a truncated header, an overrunning length and non-integer headers.
//
//	go test -run '^$' -fuzz '^FuzzRouteWire$' -fuzztime 30s ./internal/router
func FuzzRouteWire(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		msgs := fuzzMsgs(data)
		if got := decodeAll(encode(nil, msgs)); !sameMsgs(got, msgs) {
			t.Fatalf("round trip of %v gave %v", msgs, got)
		}

		wire := make([]float64, len(data)/8)
		for i := range wire {
			wire[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		got, msg := tryDecode(wire)
		if msg != "" {
			if !strings.HasPrefix(msg, "router: ") {
				t.Fatalf("decoding %v panicked with %q, want a router: message", wire, msg)
			}
			return
		}
		again := encode(nil, got)
		if len(again) != len(wire) {
			t.Fatalf("wire %v decoded to %v, which re-encodes to %v", wire, got, again)
		}
		for i, w := range again {
			// Header and key words compare by value (-0 reads as 0);
			// payload words must survive bit for bit.
			if w != wire[i] && math.Float64bits(w) != math.Float64bits(wire[i]) {
				t.Fatalf("wire %v decoded to %v, which re-encodes to %v", wire, got, again)
			}
		}
	})
}

// tryDecode decodes wire, reporting a panic's message instead of
// propagating it.
func tryDecode(wire []float64) (msgs []Msg, panicked string) {
	defer func() {
		if r := recover(); r != nil {
			panicked, _ = r.(string)
			if panicked == "" {
				panicked = "non-string panic"
			}
		}
	}()
	return decodeAll(wire), ""
}

// fuzzMsgs carves a message list out of data: per message, one byte
// of payload length (mod 4), two bytes of destination, four bytes of
// signed key, then up to that many 8-byte payload words.
func fuzzMsgs(data []byte) []Msg {
	var msgs []Msg
	for len(data) >= 7 {
		n := int(data[0] % 4)
		m := Msg{
			Dst: int(binary.LittleEndian.Uint16(data[1:])),
			Key: int(int32(binary.LittleEndian.Uint32(data[3:]))),
		}
		data = data[7:]
		for ; n > 0 && len(data) >= 8; n-- {
			m.Words = append(m.Words, math.Float64frombits(binary.LittleEndian.Uint64(data)))
			data = data[8:]
		}
		msgs = append(msgs, m)
	}
	return msgs
}

func TestDecodeMalformedWirePanics(t *testing.T) {
	valid := encode(nil, []Msg{{Dst: 1, Key: 2, Words: []float64{3, 4}}})
	for _, c := range []struct {
		name string
		wire []float64
		want string
	}{
		{"truncated header", valid[:1], "truncated header"},
		{"length overrun", valid[:3], "overruns"},
		{"negative header", []float64{-1, 0}, "malformed header"},
		{"fractional header", []float64{0.5, 0}, "malformed header"},
		{"NaN header", []float64{math.NaN(), 0}, "malformed header"},
		{"header past 2^53", []float64{1 << 53, 0}, "malformed header"},
		{"fractional key", []float64{0, 0.5}, "malformed key"},
		{"infinite key", []float64{0, math.Inf(1)}, "malformed key"},
	} {
		_, msg := tryDecode(c.wire)
		if !strings.HasPrefix(msg, "router: ") || !strings.Contains(msg, c.want) {
			t.Errorf("%s: decode panicked with %q, want a router: %s panic", c.name, msg, c.want)
		}
	}
}
