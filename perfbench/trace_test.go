package main

import (
	"bytes"
	"io/fs"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// TestLayerMapCoversEveryPackage enumerates the packages under
// internal/ on disk: each must map to exactly one CPU layer, and the map
// must name no package that no longer exists.
func TestLayerMapCoversEveryPackage(t *testing.T) {
	root := filepath.Join("..", "internal")
	onDisk := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		onDisk[filepath.ToSlash(rel)] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(onDisk) == 0 {
		t.Fatal("found no packages under internal/")
	}
	layers := map[string]bool{}
	for _, l := range cpuLayers {
		layers[l] = true
	}
	for pkg := range onDisk {
		top, _, _ := strings.Cut(pkg, "/")
		layer, ok := layerOf[top]
		if !ok {
			t.Errorf("package internal/%s has no layer in layerOf", pkg)
			continue
		}
		if !layers[layer] || layer == "runtime" || layer == "other" {
			t.Errorf("package internal/%s maps to %q, not a program layer", pkg, layer)
		}
	}
	for pkg := range layerOf {
		if !onDisk[pkg] {
			t.Errorf("layerOf names internal/%s, which has no Go files", pkg)
		}
	}
}

const sampleTraces = `File: perfbench
Type: cpu
Duration: 1s, Total samples = 100ms (10.00%)
-----------+-------------------------------------------------------
      40ms   repro/internal/netsim.(*Switch).ingress /w/internal/netsim/switch.go:380
             repro/internal/netsim.(*Network).step /w/internal/netsim/network.go:498
-----------+-------------------------------------------------------
      20ms   runtime.mallocgc /go/src/runtime/malloc.go:1055
             repro/internal/dnswire.Parse /w/internal/dnswire/parse.go:10
-----------+-------------------------------------------------------
      10ms   strconv.Itoa /go/src/strconv/itoa.go:35
             repro/internal/metrics.RowRecord.fields /w/internal/metrics/stream.go:52
-----------+-------------------------------------------------------
      10ms   repro/internal/inet.New.func1 /w/internal/httpsim/httpsim.go:138 (inline)
-----------+-------------------------------------------------------
      10ms   sort.Slice /go/src/sort/slice.go:20
             main.digest /w/perfbench/digest.go:90
-----------+-------------------------------------------------------
       5ms   repro/internal/netsim.(*Network).step /w/internal/netsim/network.go:498
-----------+-------------------------------------------------------
       5ms   syscall.Syscall /go/src/syscall/syscall.go:1
-----------+-------------------------------------------------------
`

func TestBucketTraces(t *testing.T) {
	shares, err := bucketTraces(bytes.NewBufferString(sampleTraces))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"switch":    0.40, // netsim's switch.go is the switch layer
		"runtime":   0.20, // allocation stays with the runtime
		"metrics":   0.10, // library code counts for its caller
		"hoststack": 0.10, // an inlined closure belongs to its file
		"other":     0.15, // the benchmark itself, and callerless library code
		"netsim":    0.05,
	}
	sum := 0.0
	for layer, share := range shares {
		sum += share
		if math.Abs(share-want[layer]) > 1e-9 {
			t.Errorf("%s share = %g, want %g", layer, share, want[layer])
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %g, want 1", sum)
	}
}
