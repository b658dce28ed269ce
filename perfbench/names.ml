(** Every metric the benchmark reports, with its unit, in report order.
    BENCHMARK.json declares the same lists; a test keeps the two equal. *)

let end_to_end =
  [ ("p50_ms", "ms"); ("p99_ms", "ms"); ("slo_rps", "req/s"); ("overhead_pct", "%");
    ("unavail_ms", "ms"); ("host_s", "s"); ("setup_s", "s"); ("peak_heap_mb", "MB") ]

let per_layer =
  [ ("proxy.client_queue_p50_us", "us"); ("proxy.client_queue_p99_us", "us");
    ("proxy.batch_wait_p50_us", "us"); ("proxy.batch_wait_p99_us", "us");
    ("proxy.events_per_batch", "count"); ("proxy.bubble_share", "ratio");
    ("wal.fsync_p50_us", "us"); ("wal.fsync_p99_us", "us");
    ("wal.fsyncs_per_req", "count/req");
    ("paxos.consensus_p50_us", "us"); ("paxos.consensus_p99_us", "us");
    ("paxos.entries_per_req", "count/req"); ("net.msgs_per_req", "count/req");
    ("net.dropped", "count"); ("paxos.view_changes", "count");
    ("paxos.election_ms", "ms"); ("paxos.catchup_installed", "count");
    ("dmt.sched_wait_p50_us", "us"); ("dmt.sched_wait_p99_us", "us");
    ("gate.block_ms_per_req", "ms/req"); ("dmt.turn_wait_ms_per_req", "ms/req");
    ("app.execute_p50_us", "us"); ("app.execute_p99_us", "us");
    ("socket.reply_p50_us", "us");
    ("reads.lease_share", "ratio"); ("reads.backup_share", "ratio");
    ("reads.reject_share", "ratio");
    ("ckpt.c_process_ms", "ms"); ("ckpt.c_fs_ms", "ms"); ("recovery.rejoin_ms", "ms");
    ("sim.host_s", "s"); ("sim.words_per_req", "words/req"); ("setup.host_s", "s");
    ("trace.coverage", "ratio"); ("stage.min_samples", "count");
    ("trace.overhead_x", "x");
    ("fail_frac", "ratio"); ("gen.lateness_max_ns", "ns") ]
