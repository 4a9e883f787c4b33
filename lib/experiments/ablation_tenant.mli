(** Multi-tenant service ablation (BENCH_8): eight tenants — two instances
    each of the blur/histogram/pagerank/kvlog example workloads — replay
    their engine-produced chains into one shared service, under per-epoch
    commits and group commits at 1, 2 and 4 domains (the 1-domain group
    row is the sequential control). Every row is gated by per-tenant
    restore identity against a private store, and reports throughput, p99
    commit latency, fsyncs per committed epoch and the cross-tenant dedup
    ratio (sum of private pack bytes over shared pack bytes). *)

val name : string

val title : string

type row = {
  mode : string;  (** "per-epoch" or "group" *)
  shards : int;
  domains : int;  (** domains driving disjoint tenant slices *)
  tenants : int;
  epochs : int;  (** committed epochs across all tenants *)
  seconds : float;
  epochs_per_sec : float;
  p99_latency : float;  (** seconds, submission to durable *)
  fsyncs : int;
  fsyncs_per_epoch : float;
  commit_batches : int;
  dedup_ratio : float;  (** shared-pack logical over physical bytes *)
  cross_tenant_dedup : float;
      (** sum of private per-tenant pack bytes over shared pack bytes *)
  restore_identical : bool;
}

val measure_all : ?repeat:int -> unit -> row list
(** Run all four configurations. [repeat] (default 3) replays each
    tenant's chain that many times with contiguous renumbered sequences. *)

val checks : row list -> Workload.check list

val doc : row list -> Bench_doc.t
(** The BENCH_8.json document: the rows and their {!checks}. *)

val run : scale:Workload.scale -> Format.formatter -> Workload.check list
