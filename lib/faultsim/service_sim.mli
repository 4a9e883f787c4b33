(** The multi-tenant service's crash sweep of its group-commit path —
    invariant I7 extended to shared storage, as a {!Sweep} workload:
    after a crash at any byte of any operation, {e every} tenant
    independently recovers to a committed prefix of its own epochs, each
    restoring byte-identically to its committed state, and a crash
    mid-batch never orphans a {e different} tenant's committed epoch.

    The workload runs three tenants (two byte-identical, so the shared
    pack genuinely dedups across them) over two shards with group commit
    ([Service.Group], batches of three), which runs inline on the
    caller's thread, so the op trace is reproducible and the sweep
    exhaustive. *)

val workload :
  ?rounds:int ->
  unit ->
  ((string * int) * Ickpt_runtime.Model.obj list) Sweep.workload
(** Labelled ["service"]. [rounds] (default 4) mutation rounds after the
    base epochs; each committed state is ((tenant, epoch), roots), the
    roots a full checkpoint of the live heap restored into a fresh one —
    the reference never reads the service back. *)
