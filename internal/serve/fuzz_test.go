package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"ubscache/internal/workloadspec"
)

// FuzzSubmitRequest feeds arbitrary bytes as a POST /jobs body through
// the server's handler over a stub store. The handler must not panic,
// must accept (202) only a body that is one whole JSON value, and an
// accepted request's JSON re-encoding must resubmit to the same key.
// Bodies naming a mix workload are skipped: a mix file is read when the
// request is parsed, and the fuzzer opens no files.
func FuzzSubmitRequest(f *testing.F) {
	for _, body := range []string{
		// The bodies of http_test.go.
		`{"design":"conv:32","workload":"server_001","priority":"interactive"}`,
		`{"design":"conv:32","workload":"server_001"}`,
		`{"design":"conv:32","workload":"server_004","priority":"interactive"}`,
		// The bodies of DESIGN.md §12.
		`{"design":"ubs","workload":"server_001","warmup":20000,"measure":50000,"priority":"interactive"}`,
		`{"spec":{"kind":"conv","config":{"kb":64}},"workload_spec":{"kind":"preset","config":{"name":"server_003"}}}`,
		// Rejections: two values, unknown fields, both forms, a bad class.
		`{"design":"ubs","workload":"server_001"} trailing garbage`,
		`{"design":"ubs","workload":"server_001"}{}`,
		`{"design":"ubs","workload":"server_001","bogus":1}`,
		`{"design":"ubs","spec":{"kind":"ubs"},"workload":"server_001"}`,
		`{"design":"ubs","workload":"server_001","priority":"express"}`,
		`{"design":"{\"kind\":\"ubs\"}","workload":"{\"kind\":\"preset\",\"config\":{\"name\":\"client_001\"}}"}`,
		``, `null`, `[]`, `{`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SubmitRequest
		if json.Unmarshal(body, &req) == nil && readsFile(req) {
			return
		}
		s := New(testConfig(stubStore(new(atomic.Int64), nil), 1))
		defer s.Close()
		h := s.Handler()
		post := func(b []byte) (int, SubmitResponse) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(b)))
			var sr SubmitResponse
			json.Unmarshal(rec.Body.Bytes(), &sr)
			return rec.Code, sr
		}
		code, sr := post(body)
		if code != http.StatusAccepted {
			return
		}
		if !json.Valid(body) {
			t.Fatalf("accepted a body that is not one JSON value: %q", body)
		}
		var sent SubmitRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&sent); err != nil {
			t.Fatalf("accepted body %q does not decode: %v", body, err)
		}
		again, err := json.Marshal(sent)
		if err != nil {
			t.Fatalf("accepted request %+v does not encode: %v", sent, err)
		}
		if code2, sr2 := post(again); code2 != http.StatusAccepted || sr2.Key != sr.Key {
			t.Fatalf("re-encoded %s: status %d key %q, want 202 and key %q of %q", again, code2, sr2.Key, sr.Key, body)
		}
	})
}

// readsFile reports whether resolving r would read a mix file.
func readsFile(r SubmitRequest) bool {
	spec := r.WorkloadSpec
	if spec == nil && strings.HasPrefix(r.Workload, "{") {
		spec = new(workloadspec.Spec)
		json.Unmarshal([]byte(r.Workload), spec)
	}
	return strings.HasPrefix(r.Workload, "mix:") || spec != nil && spec.Kind == "mix"
}
