package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"testing"

	"balsabm/internal/designs"
	"balsabm/internal/flow"
)

// marshalIndent is the encoding Encode replaced: json.MarshalIndent
// with two-space indentation plus a trailing newline.
func marshalIndent(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// encodeValues are wire-shaped values that exercise the encoder's
// corners: HTML and line-separator escaping, float formatting, nil and
// empty containers, map key order, raw messages and nesting.
func encodeValues() map[string]any {
	return map[string]any{
		"null":    nil,
		"number":  42,
		"floats":  []float64{0, 0.1, 1e21, 1e-7, -2.5, math.MaxFloat64},
		"escapes": "<a href=\"x\">&amp;</a>\u2028\u2029\t\n\u00e9\x7f",
		"empty":   map[string][]int{"nil": nil, "empty": {}},
		"map":     map[string]int{"b": 2, "a": 1, "c": 3},
		"raw":     json.RawMessage(`{"z":[1,2,{"y":null}]}`),
		"status": JobStatus{ID: "j1", Kind: KindSynth, State: StateDone,
			ControllersReused: 3, ControllersResynthesized: 1},
		"metrics": &MetricsJSON{JobsByState: map[string]int64{"done": 2}, NetlintDiags: map[string]int64{"NL007": 1}},
		"lint":    LintResult("x.ch", nil),
	}
}

// Encode and EncodeWith write exactly what MarshalIndent plus '\n'
// writes, on corner-case values and on a full audit result.
func TestEncodeMatchesMarshalIndent(t *testing.T) {
	values := encodeValues()
	d, err := designs.ByName("systolic-counter")
	if err != nil {
		t.Fatal(err)
	}
	audit, err := flow.AuditDesign(d, &flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	values["audit"] = FromAuditResult(audit)
	for name, v := range values {
		want := marshalIndent(t, v)
		got, err := Encode(v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: Encode differs from MarshalIndent:\n%s\nvs\n%s", name, got, want)
		}
		if len(got) != cap(got) {
			t.Errorf("%s: Encode returned %d bytes in a %d-byte slice", name, len(got), cap(got))
		}
		if err := EncodeWith(v, func(b []byte) {
			if !bytes.Equal(b, want) {
				t.Errorf("%s: EncodeWith differs from MarshalIndent", name)
			}
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// An encoding error reaches the caller, use is not called, and the
// pooled encoder keeps working.
func TestEncodeError(t *testing.T) {
	if err := EncodeWith(math.NaN(), func([]byte) { t.Error("use called on an encoding error") }); err == nil {
		t.Fatal("NaN encoded")
	}
	if b, err := Encode(math.NaN()); err == nil || b != nil {
		t.Fatalf("Encode(NaN) = %q, %v", b, err)
	}
	got, err := Encode(map[string]int{"a": 1})
	if err != nil || string(got) != "{\n  \"a\": 1\n}\n" {
		t.Fatalf("after an error: %q, %v", got, err)
	}
}

// Concurrent encoders on different values never see each other's
// bytes: each goroutine checks every encoding it makes, through both
// entry points, while the others reuse the pool.
func TestEncodeConcurrent(t *testing.T) {
	values := make([]any, 0, 16)
	for i := 0; i < 16; i++ {
		values = append(values, map[string]any{
			"id":    fmt.Sprintf("job-%d", i),
			"n":     i,
			"items": bytes.Repeat([]byte{byte('a' + i)}, 64<<i%5),
		})
	}
	wants := make([][]byte, len(values))
	for i, v := range values {
		wants[i] = marshalIndent(t, v)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 200; it++ {
				i := (g*7 + it) % len(values)
				got, err := Encode(values[i])
				if err != nil || !bytes.Equal(got, wants[i]) {
					t.Errorf("goroutine %d: Encode of value %d wrong (%v)", g, i, err)
					return
				}
				if err := EncodeWith(values[i], func(b []byte) {
					if !bytes.Equal(b, wants[i]) {
						t.Errorf("goroutine %d: EncodeWith of value %d wrong", g, i)
					}
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
