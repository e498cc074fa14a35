package gates

import (
	"encoding/json"
	"fmt"
)

// netlistJSON is the stable on-disk shape of a Netlist. Only the
// structural fields are serialized; the interned-name index and the
// lazy driver index are rebuilt on decode.
type netlistJSON struct {
	Name      string     `json:"name"`
	NetNames  []string   `json:"netNames"`
	Inputs    []int      `json:"inputs"`
	Outputs   []int      `json:"outputs"`
	Instances []Instance `json:"instances"`
	Const0    int        `json:"const0"`
}

// EncodeJSON serializes the netlist's structural content. The output
// is deterministic (no map-ordered fields) so it can live in the
// content-addressed artifact store.
func EncodeJSON(n *Netlist) ([]byte, error) {
	return json.Marshal(netlistJSON{
		Name:      n.Name,
		NetNames:  n.NetNames,
		Inputs:    n.Inputs,
		Outputs:   n.Outputs,
		Instances: n.Instances,
		Const0:    n.Const0,
	})
}

// DecodeJSON rebuilds a Netlist from EncodeJSON output, restoring the
// net-name index. Netlists with duplicate or dangling net references
// are rejected: a cached artifact that fails these checks is treated
// as corrupt rather than resynthesized into downstream stages.
func DecodeJSON(data []byte) (*Netlist, error) {
	var w netlistJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("gates: decode netlist: %w", err)
	}
	n := &Netlist{
		Name:      w.Name,
		NetNames:  w.NetNames,
		netIndex:  make(map[string]int, len(w.NetNames)),
		Inputs:    w.Inputs,
		Outputs:   w.Outputs,
		Instances: w.Instances,
		Const0:    w.Const0,
	}
	for id, name := range n.NetNames {
		if _, dup := n.netIndex[name]; dup {
			return nil, fmt.Errorf("gates: decode netlist %s: duplicate net %q", n.Name, name)
		}
		n.netIndex[name] = id
	}
	// The message is formatted only for a reference that fails.
	bad := func(net int) bool { return net < -1 || net >= len(n.NetNames) }
	fail := func(net int, what string) error {
		return fmt.Errorf("gates: decode netlist %s: %s references net %d of %d", n.Name, what, net, len(n.NetNames))
	}
	if bad(n.Const0) {
		return nil, fail(n.Const0, "const0")
	}
	for _, in := range n.Inputs {
		if bad(in) {
			return nil, fail(in, "input")
		}
	}
	for _, out := range n.Outputs {
		if bad(out) {
			return nil, fail(out, "output")
		}
	}
	for i, inst := range n.Instances {
		for _, in := range inst.Inputs {
			if bad(in) {
				return nil, fail(in, fmt.Sprintf("instance %d input", i))
			}
		}
		if bad(inst.Output) {
			return nil, fail(inst.Output, fmt.Sprintf("instance %d output", i))
		}
	}
	return n, nil
}
