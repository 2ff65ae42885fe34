// Package hoststack implements a simulated client/server operating
// system network stack on top of the netsim fabric: ARP and IPv6
// neighbor discovery, SLAAC with RDNSS learning, a DHCPv4 client with
// RFC 8925 option 108 support, CLAT activation, IPv4/IPv6 routing, UDP
// and minimal TCP sockets, ICMP echo, and a stub DNS resolver that
// performs suffix-list search and RFC 6724 destination ordering.
//
// Every operating-system quirk the paper observes is a Behavior knob, so
// the same stack reproduces Windows XP, Windows 10/11, Linux, Android,
// iOS and the Nintendo Switch (see internal/profiles).
package hoststack

// Behavior is the OS-specific policy matrix for a host.
type Behavior struct {
	// Name labels the profile ("Windows 10", "Nintendo Switch", ...).
	Name string

	// IPv6Enabled gates the whole IPv6 stack (SLAAC, ND, RDNSS).
	IPv6Enabled bool
	// IPv4Enabled gates the IPv4 stack (ARP, DHCPv4).
	IPv4Enabled bool

	// SupportsRFC8925 makes the DHCPv4 client request option 108 and,
	// when the server grants it, abandon IPv4 for the advertised wait.
	SupportsRFC8925 bool
	// HasCLAT starts a 464XLAT customer-side translator once IPv4 is
	// disabled via option 108, keeping IPv4-literal applications working.
	HasCLAT bool

	// SupportsRDNSS lets the host learn IPv6 DNS servers from RAs.
	// Windows XP predates RFC 8106 and has this false.
	SupportsRDNSS bool
	// PreferIPv4DNS makes the stub resolver try the DHCPv4-provided
	// resolver before the RDNSS one (observed on some Windows 11 builds).
	PreferIPv4DNS bool

	// UseSuffixSearch appends the connection-specific DNS suffix after an
	// NXDOMAIN on a single-label-or-relative name (Windows behaviour that
	// triggers the paper's Fig. 9 pathology).
	UseSuffixSearch bool
}
