package sim

import (
	"encoding/json"
	"fmt"
)

// FingerprintJSON returns a canonical JSON encoding of everything that
// determines a run's outcome: the machine configuration, the switch
// policy (by name and parameters, since distinct policies can share a
// parameter shape), the thread specs, and the measurement scale.
// Spec.Watchdog and Spec.Engine are deliberately excluded: they bound
// or slow execution but never alter a produced result, so cached
// results remain valid across watchdog settings and engine choices.
//
// Simulations are pure functions of this payload, so equal payloads
// imply bit-identical Results. encoding/json emits struct fields in
// declaration order and floats in shortest-round-trip form, so the
// encoding is stable for a given schema version; callers hash it
// together with a schema-version string to form cache keys (see
// internal/experiments.Fingerprint).
func (s Spec) FingerprintJSON() ([]byte, error) {
	if s.Machine.Controller.Policy == nil {
		return nil, fmt.Errorf("sim: fingerprint: nil controller policy")
	}
	doc := struct {
		Pipeline   interface{}
		Memory     interface{}
		Controller interface{}
		PolicyName string
		Threads    []ThreadSpec
		Scale      Scale
	}{
		Pipeline:   s.Machine.Pipeline,
		Memory:     s.Machine.Memory,
		Controller: s.Machine.Controller,
		PolicyName: s.Machine.Controller.Policy.Name(),
		Threads:    s.Threads,
		Scale:      s.Scale,
	}
	return json.Marshal(doc)
}
