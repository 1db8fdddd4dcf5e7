package runtime

// Testbed is one in-process cloud and its edges, the experiment system of
// the paper's Fig. 5 minus the devices.
type Testbed struct {
	Cloud *Cloud
	// Edges are in start order.
	Edges []*Edge
}

// StartTestbed brings up the cloud, then each edge in order, and owns how
// the tiers are wired: an empty Addr listens on an ephemeral loopback port,
// every edge forwards to the cloud, and each edge after the first peers with
// the edges started before it (listen addresses are ephemeral, so a full
// mesh cannot be configured up front). If any tier fails to start, the
// tiers already started are closed and the error is returned.
func StartTestbed(cloud CloudConfig, edges []EdgeConfig) (*Testbed, error) {
	if cloud.Addr == "" {
		cloud.Addr = "127.0.0.1:0"
	}
	c, err := StartCloud(cloud)
	if err != nil {
		return nil, err
	}
	tb := &Testbed{Cloud: c}
	var addrs []string
	for _, cfg := range edges {
		if cfg.Addr == "" {
			cfg.Addr = "127.0.0.1:0"
		}
		cfg.CloudAddr = c.Addr()
		cfg.Peers = append([]string(nil), addrs...)
		e, err := StartEdge(cfg)
		if err != nil {
			tb.Close()
			return nil, err
		}
		tb.Edges = append(tb.Edges, e)
		addrs = append(addrs, e.Addr())
	}
	return tb, nil
}

// Close shuts the edges in start order, then the cloud. A tier the caller
// already closed is closed again harmlessly.
func (tb *Testbed) Close() {
	for _, e := range tb.Edges {
		_ = e.Close()
	}
	_ = tb.Cloud.Close()
}
