(** The multi-tenant service's group-commit policy
    ([Ickpt_service.Service.commit_mode]).

    The paper writes checkpoints "from the output stream to stable storage
    asynchronously". Nothing here does: a [Ickpt_cas.Store] commits each
    epoch synchronously, and the service group-commits inline on the
    submitting caller's thread. The policy type keeps this module's name
    because callers outside the library build it by that name. *)

module Batch : sig
  type policy = {
    max_items : int;  (** epochs per batch; >= 1 *)
    max_bytes : int;  (** segment body bytes per batch; >= 1 *)
    linger : float;  (** must be [0.]: there is no drain thread to wait *)
  }
end
