package service

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nmo/internal/trace"
)

// decodeSpec decodes a submission body exactly as handleSubmit does:
// bounded by MaxSpecBytes, unknown fields rejected.
func decodeSpec(body []byte) (JobSpec, error) {
	var spec JobSpec
	rd := http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)), MaxSpecBytes)
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// FuzzSpecContentAddress feeds arbitrary submission bodies through
// the handler's decoding and ContentAddress. Nothing may panic, and an
// accepted spec must keep its address across a JSON re-encode round
// trip — the gateway routes on the address of the bytes it forwards,
// the shard admits under the address of what it decodes.
func FuzzSpecContentAddress(f *testing.F) {
	for _, seed := range []string{
		`{"scenarios":[{"workload":"stream","threads":8,"elems":200000,"cores":16,"period":1000}]}`,
		`{"scenarios":[{"workload":"stream"},{"workload":"stream"},{"workload":"cfd","mode":"full","backend":"pebs"}],"priority":3}`,
		`{"scenarios":[{"workload":"bfs","name":"ÿ\ud800","seed":18446744073709551615,"compress":true,"block_samples":32}]}`,
		`{"scenarios":[{"workload":"stream","threads":0,"period":0,"track_rss":true,"buf_mib":2,"aux_mib":2}]}`,
		`{"scenarios":[]}`,
		`{"scenarios":[{"workload":"stream","bogus":1}]}`,
		`{"scenarios":[{"workload":"stream","threads":-1}]}`,
		`null`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeSpec(body)
		if err != nil {
			return
		}
		key, err := ContentAddress(spec)
		if err != nil {
			return
		}
		if len(key) != 64 {
			t.Fatalf("content address %q is not a hex SHA-256", key)
		}
		again, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not re-encode: %v", err)
		}
		spec2, err := decodeSpec(again)
		if err != nil {
			t.Fatalf("re-encoded spec %s does not decode: %v", again, err)
		}
		key2, err := ContentAddress(spec2)
		if err != nil || key2 != key {
			t.Fatalf("address %s became %s (%v) after a JSON round trip of %s", key, key2, err, again)
		}
	})
}

// fuzzKey is the content address the sidecar fuzz files its entry
// under.
const fuzzKey = "00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff"

// validSpill returns a committed entry's sidecar and blob for fuzzKey:
// a small v2 stream and the manifest that adopts it.
func validSpill(f *testing.F) (sidecar, blob []byte) {
	var buf bytes.Buffer
	wr, err := trace.NewWriterV2(&buf, trace.Meta{Workload: "synth"}, 4)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		s := trace.Sample{TimeNs: uint64(i) * 100, VA: 0x1000 + uint64(i)*64, Core: int16(i % 3), Region: -1, Kernel: -1}
		if err := wr.Emit(&s); err != nil {
			f.Fatal(err)
		}
	}
	if err := wr.Close(); err != nil {
		f.Fatal(err)
	}
	sum := wr.Sum16()
	sc, err := json.Marshal(sidecarDoc{Version: 1, Key: fuzzKey, Traces: []sidecarTrace{{
		Name: "s0", MD5: hex.EncodeToString(sum[:]), Bytes: int64(buf.Len()), File: spillBlobName(fuzzKey, 0),
	}}})
	if err != nil {
		f.Fatal(err)
	}
	return sc, buf.Bytes()
}

// FuzzSpillSidecar boots a cache on a spill directory holding one
// fuzzed sidecar and one fuzzed blob file. Boot must never panic or
// fail; every adopted entry's bytes must rehash to its recorded MD5;
// every file no adopted entry claims must be quarantined; and nothing
// outside the directory may be touched, whatever path the sidecar
// names.
func FuzzSpillSidecar(f *testing.F) {
	sc, blob := validSpill(f)
	f.Add(sc, blob)
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(sc, flipped)
	f.Add(sc[:len(sc)/2], blob)
	f.Add(bytes.Replace(sc, []byte(spillBlobName(fuzzKey, 0)), []byte("../outside.nmo2"), 1), blob)
	f.Add(bytes.Replace(sc, []byte(spillBlobName(fuzzKey, 0)), []byte(".."), 1), blob)
	f.Add([]byte(`{"version":1,"key":"`+fuzzKey+`","traces":[{"bytes":0}]}`), blob)

	f.Fuzz(func(t *testing.T, sidecar, blob []byte) {
		root := t.TempDir()
		dir := filepath.Join(root, "spill")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		outside := filepath.Join(root, "outside.nmo2")
		for path, data := range map[string][]byte{
			filepath.Join(dir, fuzzKey+spillMetaSuffix):   sidecar,
			filepath.Join(dir, spillBlobName(fuzzKey, 0)): blob,
			outside: blob,
		} {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		c, err := NewCache(CacheConfig{Dir: dir})
		if err != nil {
			t.Fatalf("boot failed: %v", err)
		}
		claimed := map[string]bool{}
		for key, e := range c.entries {
			claimed[key+spillMetaSuffix] = true
			for _, b := range e.art.Traces {
				if b.Size() == 0 {
					continue
				}
				bk := b.backing.Load()
				claimed[filepath.Base(bk.path)] = true
				data, err := b.Bytes()
				if err != nil {
					t.Fatalf("adopted blob %s unreadable: %v", bk.path, err)
				}
				rd, err := trace.OpenV2(bytes.NewReader(data))
				if err != nil {
					t.Fatalf("adopted blob %s is not a trace: %v", bk.path, err)
				}
				if sum, err := rd.VerifyMD5(); err != nil || sum != b.MD5 {
					t.Fatalf("adopted blob %s rehashes to %x (%v), recorded %x", bk.path, sum, err, b.MD5)
				}
			}
		}
		des, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, de := range des {
			if name := de.Name(); !claimed[name] && !strings.HasSuffix(name, quarantineExt) {
				t.Errorf("%s is neither adopted nor quarantined", name)
			}
		}
		if got, err := os.ReadFile(outside); err != nil || !bytes.Equal(got, blob) {
			t.Errorf("file outside the spill dir was touched: %v", err)
		}
		if des, _ := os.ReadDir(root); len(des) != 2 {
			t.Errorf("spill dir's parent holds %d entries, want 2: %s", len(des), fmt.Sprint(des))
		}
	})
}
