package core

import "impacc/internal/sim"

// CheckGolden lets the external test package compare with golden files
// under the same -update flag as this package's tests.
var CheckGolden = checkGolden

// FlightShards returns every shard's flight-recorder snapshot, in shard
// order. Call only after Execute.
func (rt *Runtime) FlightShards() []sim.ShardFlight {
	out := make([]sim.ShardFlight, len(rt.shards))
	for i, e := range rt.shards {
		out[i] = e.FlightShard()
	}
	return out
}
