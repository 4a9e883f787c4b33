(** Content-addressed store ablation (extension, not in the paper): what
    the dedup store buys over storing and replaying a plain chain of
    segments, on two kinds of workload:

    - the analysis engine over mini-C programs in {e full} checkpointing
      mode — every epoch re-records the whole annotation heap, so chunk
      dedup across epochs should collapse the on-disk footprint;
    - a long pagerank-style fixed-point run (the [examples/pagerank.ml]
      dynamics: change-detecting barriers, convergence) checkpointed
      incrementally for 100+ epochs — there the win is the epoch index:
      [Store.restore ~epoch] folds per-object directories instead of
      replaying the whole chain oldest-to-newest.

    Each row records the dedup ratio (logical bytes over pack bytes on
    disk), and the latency of materializing a mid-run epoch by chain
    replay vs through the store. [ickpt_bench dedup] writes the rows to
    [BENCH_5.json]. *)

type row = {
  workload : string;
  epochs : int;
  chunks : int;  (** distinct chunks on disk *)
  logical_bytes : int;  (** sum of segment bodies over all epochs *)
  physical_bytes : int;  (** pack + index bytes on disk *)
  dedup_ratio : float;  (** logical over pack bytes *)
  target_epoch : int;  (** the mid-run epoch both restores materialize *)
  replay_seconds : float;  (** chain replay (oldest-to-newest accumulate) *)
  store_seconds : float;  (** [Store.restore ~epoch] *)
  speedup : float;  (** replay over store *)
  states_equal : bool;  (** the two restored heaps agree byte-for-byte *)
}

val name : string
val title : string

val measure_engine :
  ?repeats:int -> (string * Minic.Ast.program) list -> row list
(** One row per program: run the analysis engine in full-checkpointing
    mode, store every epoch, restore the middle one both ways. *)

val measure_pagerank :
  ?repeats:int -> ?epochs:int -> ?pages:int -> unit -> row
(** The ≥100-epoch incremental run (defaults: 120 epochs, 300 pages);
    the restored target is epoch [epochs - 10]. *)

val checks : row list -> Workload.check list
(** Asserts: states always equal; dedup ratio > 1.5 on at least one
    engine workload; store restore beats chain replay on every row with
    100+ epochs — N/A when no row has 100 epochs. *)

val doc : row list -> Bench_doc.t
(** The [BENCH_5.json] document: the rows and their {!checks}. *)

val run : scale:Workload.scale -> Format.formatter -> Workload.check list
(** Registry entry point: built-in generator programs plus the pagerank
    run ([scale] scales the epoch count; 1.0 = 120 epochs, floored at
    12). *)
