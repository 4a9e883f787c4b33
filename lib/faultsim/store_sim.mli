(** The content-addressed store's crash sweep: invariant I7 extended to
    the pack + epoch-index pair (see DESIGN.md §8), as a {!Sweep}
    workload.

    The workload checkpoints through [Manager.create ?sink] with a
    mid-run [Store.gc]. After each crash the store must:

    - reopen without raising;
    - pass [Store.check] (contiguous epochs, refcounts consistent,
      every referenced chunk present and content-verified);
    - hold a committed epoch prefix: every surviving epoch was committed
      and restores to exactly its state in the reference run;
    - accept a post-recovery checkpoint that is itself restorable
      (the "second life"). *)

val workload :
  ?rounds:int -> unit -> (int * Ickpt_runtime.Model.obj list) Sweep.workload
(** Labelled ["store"]. [rounds] checkpoints after the base one (default
    5, with a GC after round 3); each committed state is (epoch, roots). *)
