package testbed

// chaosSeed derives a client's impairment seed from the topology's base
// ChaosSeed and the client's name alone — never from MAC assignment or
// attach order — so the client's loss/jitter/duplication draws are
// byte-identical whether it runs serially or inside any shard. The name
// hash is FNV-1a; the combination is finalized with the same splitmix64
// mixer the scenario engine uses for per-shard seeds.
func chaosSeed(base uint64, name string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 0x100000001b3
	}
	z := base + 0x9e3779b97f4a7c15*h
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
