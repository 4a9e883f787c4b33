(** Per-tenant attribution on a shared multi-tenant pack: who owns which
    chunks, who shares, and how many bytes sharing saved each tenant —
    computed from an open service's committed entries, catalog and chunk
    lengths alone, so [ickpt_store inspect] can report it without schemas
    or open tenants. *)

open Ickpt_core

type row = {
  a_tenant : int;  (** tenant id *)
  a_name : string;  (** catalog name, or the hex id if uncataloged *)
  a_epochs : int;  (** committed epochs *)
  a_chunks : int;  (** distinct chunks referenced *)
  a_owned : int;  (** of those, referenced by this tenant alone *)
  a_shared : int;  (** referenced by at least one other tenant too *)
  a_logical_bytes : int;  (** segment body bytes summed over every epoch *)
  a_private_bytes : int;  (** pack bytes a private store would need
                              (distinct chunks, bodies only) *)
  a_saved_bytes : int;  (** equal-split share of the bytes cross-tenant
                            sharing saved: for a chunk referenced by [k]
                            tenants, each is credited [len * (k-1) / k] *)
}

val is_service_store : ?vfs:Vfs.t -> string -> bool
(** Does [path] root a multi-tenant service store (meta file present)? *)

val rows : Service.t -> row list
(** One row per cataloged or committing tenant, sorted by name. Reads no
    file and no chunk: the service's open recovered and cut the files
    once. *)
