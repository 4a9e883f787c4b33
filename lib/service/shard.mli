(** Placing tenants onto shards.

    A shard is a unit of commit concurrency: one multiplexed epoch-index
    file plus one append queue. A tenant's shard is a pure function of its
    id, so the mapping is stable across reopens (which is why the shard
    count is persisted in the service meta file — reopening with a
    different count would strand entries in the wrong files). *)

val default_count : int
(** 4. *)

val max_count : int
(** 1024: the most shards a service opens. A shard is one index file and
    one commit queue, so a count read from disk above this is corrupt. *)

val of_id : shards:int -> int -> int
(** The shard of a tenant id. @raise Invalid_argument if [shards < 1]. *)

val of_name : shards:int -> string -> int
(** [of_id ~shards (Service.tenant_id name)]. *)
