package netsim_test

import (
	"fmt"
	"time"

	"repro/internal/netsim"
)

// A lossy, flapping link: the same seed always drops the same frames,
// so impaired experiments replay bit-identically.
func ExampleImpairment() {
	n := netsim.NewNetwork()
	var delivered int
	a := n.NewNIC("client", nil)
	b := n.NewNIC("switchport", netsim.FrameHandlerFunc(func(_ *netsim.NIC, f netsim.Frame) {
		delivered++
	}))
	n.Connect(a, b)

	a.SetImpairment(netsim.Impairment{
		Loss:      0.25,                   // drop 1 in 4 frames
		FlapEvery: 100 * time.Millisecond, // and go dark...
		FlapDown:  20 * time.Millisecond,  // ...for the last 20ms of each period
	}, 42)

	for i := 0; i < 100; i++ {
		a.Transmit(netsim.Frame{Dst: b.MAC(), Payload: []byte{byte(i)}})
		n.RunFor(2 * time.Millisecond)
	}

	st := n.Stats()
	fmt.Printf("delivered=%d lost=%d flap-dropped=%d\n",
		delivered, st.FramesImpairLost, st.FramesImpairFlapDropped)
	// Output: delivered=59 lost=21 flap-dropped=20
}
