package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzServeSpec drives arbitrary request bytes through the spec surface of
// every job kind, decoded exactly as resolveSpec decodes a request body.
// Whenever Normalize accepts a spec, Digest must not panic, and the
// normalized spec must be a fixpoint: re-encoded, decoded and normalized
// again, it has the same digest. No job is executed.
func FuzzServeSpec(f *testing.F) {
	for _, job := range goldenJobs() {
		b, err := json.Marshal(job.spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range []string{
		`{"workload":"TJ","geometry":"1G/64:8"}`,
		`{"workload":"TJ","geometry":"8G/1:1"}`,
		`{"workload":"TJ","sim_workers":-1}`,
		`{"workload":"TJ","sim_workers":0}`,
		`{"workload":"TJ","sim_workers":64}`,
		`{"workload":"TJ","sim_workers":65}`,
	} {
		f.Add([]byte(s))
	}
	decode := func(kind Kind, body []byte) (Spec, error) {
		spec, err := decodeSpec(kind)
		if err != nil {
			return nil, err
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(spec); err != nil {
			return nil, err
		}
		return spec, spec.Normalize()
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, kind := range []Kind{KindRun, KindMissCurve, KindTransform, KindOracle} {
			spec, err := decode(kind, body)
			if err != nil {
				continue
			}
			digest := Digest(spec)
			canon, err := json.Marshal(spec)
			if err != nil {
				t.Fatalf("%s: marshal normalized spec: %v", kind, err)
			}
			again, err := decode(kind, canon)
			if err != nil {
				t.Fatalf("%s: normalized spec %s does not normalize again: %v", kind, canon, err)
			}
			if d := Digest(again); d != digest {
				t.Fatalf("%s: digest of %s moved on re-normalization: %s -> %s", kind, canon, digest, d)
			}
		}
	})
}
