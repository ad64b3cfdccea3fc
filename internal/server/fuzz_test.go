package server

import "testing"

// FuzzDecodeSessionConfig: arbitrary bytes must either decode cleanly or
// return an error — never panic. A panic here would take down the create
// handler; no simulator state is involved because decoding happens
// before any is built.
func FuzzDecodeSessionConfig(f *testing.F) {
	f.Add([]byte(`{"mode":"rmcc","scheme":"morphable","workload":"canneal","size":"test","seed":1}`))
	f.Add([]byte(`{"footprint_bytes":1048576,"label":"trace"}`))
	f.Add([]byte(`{"engine":{"Mode":2,"Scheme":2,"CounterCacheBytes":131072}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Add([]byte(`{"mode":"rmcc"} trailing`))
	f.Add([]byte(`{"unknown_field":true}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"seed":-1}`))
	f.Add([]byte(`{"seed":1e400}`))
	f.Add([]byte("{\"mode\":\"\x00\"}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := DecodeSessionConfig(data)
		if err != nil {
			return
		}
		// A decodable config must also resolve without panicking (resolve
		// can still reject it with an error — that is a 400, not a crash).
		if _, rerr := sc.resolve(); rerr != nil {
			return
		}
	})
}
