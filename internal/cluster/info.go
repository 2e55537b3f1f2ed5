package cluster

// Info is the GET /v1/cluster response: one node's view of the fleet.
type Info struct {
	// Self is this node's advertised base URL; Version its code version.
	Self    string `json:"self"`
	Version string `json:"version"`
	// Replication is the replica count M every key is stored under.
	Replication int `json:"replication"`
	// Peers is the full static membership, sorted, with live health: the
	// node probes every peer's /healthz when answering.
	Peers []PeerHealth `json:"peers"`
}

// PeerHealth is one peer's probed state inside Info.
type PeerHealth struct {
	// URL is the peer's advertised base URL.
	URL string `json:"url"`
	// Status is "self" for the answering node, "ok" for a peer that
	// answered its health probe, "down" otherwise.
	Status string `json:"status"`
	// Err carries the probe failure for "down" peers.
	Err string `json:"err,omitempty"`
}

// Stats snapshots the replication outbox for /healthz.
type Stats struct {
	// Enqueued counts replication intents journaled this process;
	// Delivered counts blob pushes acknowledged by a replica (including
	// deliveries owed by a previous process).
	Enqueued  uint64 `json:"enqueued"`
	Delivered uint64 `json:"delivered"`
	// Failed counts delivery attempts that errored (the intent stays
	// queued and is retried); Pending is the current undelivered
	// (key, replica) pair count — the outbox depth.
	Failed  uint64 `json:"failed"`
	Pending int    `json:"pending"`
	// OldestAgeSec is how long the oldest still-undelivered intent has been
	// waiting, in seconds (0 when the queue is empty). A growing value under
	// a healthy network is the first sign of a stuck replica.
	OldestAgeSec float64 `json:"oldest_age_sec,omitempty"`
}
