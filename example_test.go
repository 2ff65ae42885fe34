package repro_test

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dnswire"
	"repro/internal/httpsim"
	"repro/internal/profiles"
	"repro/internal/testbed"
)

// The intervention in one screenful: an RFC 8925 phone browses an
// IPv4-only site through NAT64 while an IPv4-only console is told why
// it has no internet.
func Example_intervention() {
	tb := testbed.New(testbed.DefaultOptions())
	phone := tb.AddClient("phone", profiles.Android())
	console := tb.AddClient("console", profiles.NintendoSwitch())

	r, _ := httpsim.Browse(phone, "http://sc24.supercomputing.org/")
	fmt.Printf("phone used %s -> %s", r.UsedAddr, r.Response.Body)

	r, _ = httpsim.Browse(console, "http://sc24.supercomputing.org/")
	fmt.Printf("console informed: %v\n", strings.Contains(string(r.Response.Body), "lack of IPv6 support"))

	// Output:
	// phone used 64:ff9b::be5c:9e04 -> SC24 | The International Conference for HPC
	// console informed: true
}

// The Fig. 9 pathology: nslookup shows a fabricated answer for a
// non-existent suffixed name while getaddrinfo resolves correctly.
func Example_nonexistentFQDN() {
	tb := testbed.New(testbed.DefaultOptions())
	c := tb.AddClient("win11", profiles.Windows11())

	ns, _ := c.NSLookup("vpn.anl.gov", dnswire.TypeA)
	fmt.Printf("nslookup: %s -> %v\n", ns.Name, ns.Addrs)

	res, _ := c.Lookup("vpn.anl.gov")
	best, _ := res.BestAddr()
	fmt.Printf("getaddrinfo: %v\n", best)

	// Output:
	// nslookup: vpn.anl.gov.rfc8925.com. -> [23.153.8.71]
	// getaddrinfo: 64:ff9b::82ca:e4fd
}

// Evaluate classifies what a device experiences on the testbed.
func ExampleEvaluate() {
	tb := testbed.New(testbed.DefaultOptions())
	c := tb.AddClient("xp", profiles.WindowsXP())
	o := core.Evaluate(tb, c)
	fmt.Println(o.Class, o.FixedScore)
	// Output: internet-via-ipv6 9/10
}

// A two-tier world built from a spec: two access switches of four
// registered clients each trunk into the managed switch. A registered
// client is a row index that holds no state until Materialize builds
// the full host; Park returns it to its row, so the active working set
// stays tiny no matter how many clients the spec registers.
func Example_fabricTopology() {
	spec := testbed.FabricTopology(testbed.DefaultOptions(), 2, 4)
	tb, err := testbed.Build(spec)
	if err != nil {
		fmt.Println("build:", err)
		return
	}
	defer tb.Close()

	fb := tb.Fabric
	_, registered := fb.Rows(len(fb.Switches) - 1)
	fmt.Printf("registered %d clients on %d access switches\n",
		registered, len(fb.Switches))

	for sw := 0; sw < 2; sw++ {
		row, _ := fb.Rows(sw)
		c := fb.Materialize(row, fmt.Sprintf("phone-%d", sw), profiles.Android())
		r, _ := httpsim.Browse(c, "http://sc24.supercomputing.org/")
		fmt.Printf("domain %d browsed over IPv6: %v\n", fb.DomainOf(row), r.UsedAddr.Is6())
		fb.Park(row)
	}
	fmt.Printf("active after parking: %d\n", fb.ActiveCount())

	// Output:
	// registered 8 clients on 2 access switches
	// domain 0 browsed over IPv6: true
	// domain 1 browsed over IPv6: true
	// active after parking: 0
}
