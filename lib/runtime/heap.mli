(** The live heap: allocation, unique-id management and the id → object
    registry that both incremental recording and restoration rely on.

    The registry is an {!Ickpt_stream.Idtbl} from id to slot plus one
    object per slot, so it iterates in allocation order and a restore can
    hand over the slot table it has already filled ({!adopt}). *)

type t

val create : ?capacity:int -> Schema.t -> t
(** An empty heap whose registry is sized for [capacity] objects (default
    1024) — restoration passes the number of objects it will allocate. *)

val schema : t -> Schema.t

val alloc : t -> Model.klass -> Model.obj
(** Allocate a fresh object with zeroed scalar slots and null children.
    Its [modified] flag starts {e set}: an object created since the previous
    checkpoint must appear in the next one. *)

val alloc_with_id : t -> Model.klass -> id:int -> modified:bool -> Model.obj
(** Restoration-path allocation with a caller-chosen id.
    @raise Invalid_argument if [id] is already live or negative. *)

val make_obj : Model.klass -> id:int -> modified:bool -> Model.obj
(** A fresh object with zeroed scalars and null children, registered in no
    heap: restoration builds every object with it, then {!adopt}s them. *)

val adopt : Schema.t -> Ickpt_stream.Idtbl.t -> Model.obj array -> t
(** [adopt schema ids objs] is a heap whose registry is [ids] itself, slot
    [s] holding [objs.(s)]: restoration numbers every object once and
    registers none again. The heap takes both over; the caller must not
    use them afterwards.
    @raise Invalid_argument if an object's id is negative or not its
    slot's key. *)

val find : t -> int -> Model.obj option

val find_exn : t -> int -> Model.obj
(** @raise Not_found *)

val count : t -> int

val iter : t -> (Model.obj -> unit) -> unit
(** In registration (allocation) order. *)

val next_id : t -> int
(** The id the next {!alloc} will use (for tests and stats). *)

val clear_all_modified : t -> unit
(** Reset every object's flag, e.g. after an initial full checkpoint. *)

val modified_count : t -> int

val sweep : t -> roots:Model.obj list -> int
(** Remove from the id registry every object not reachable from [roots],
    returning how many were dropped. The analog of a GC sweep for the
    registry: replaced substructure (e.g. superseded side-effect lists)
    otherwise accumulates as unreachable-but-registered garbage. Live
    object ids, their order and the allocation counter are unaffected;
    the registry is rebuilt from the survivors. *)
