(** The content-addressed store's crash sweep: invariant I7 extended to
    the pack + epoch-index pair (see DESIGN.md §8), as a {!Sweep}
    workload.

    The workload checkpoints through [Store.checkpoint] with a
    mid-run [Store.gc]. After each crash the store must:

    - reopen without raising;
    - pass [Store.check] (contiguous epochs, every referenced chunk
      located inside the pack, CRC-intact and content-verified);
    - hold a committed epoch prefix: every surviving epoch was committed
      and restores to exactly its state in the reference run;
    - accept a post-recovery checkpoint that is itself restorable
      (the "second life"). *)

val workload :
  ?rounds:int -> unit -> (int * Ickpt_runtime.Model.obj list) Sweep.workload
(** Labelled ["store"]. [rounds] checkpoints after the base one (default
    5, with a GC after round 3 that keeps only epoch 3, the newest full:
    it drops epochs 0-2, so its staged writes and both renames are
    swept); each committed state is (epoch, roots). *)
