(** Well-formedness checking and symbol tables for analyzed programs. The
    analyses assume checked programs; {!check} reports the first violation
    as an exception, and the {!env} it returns indexes every global (the
    variable numbering used in checkpointed side-effect sets). *)

exception Check_error of string

type env = {
  program : Ast.program;
  global_ids : (string * int) list;
      (** every global paired with a dense id, in declaration order *)
}

val check : Ast.program -> env
(** Validates: unique global/function/local/parameter names, no shadowing
    of globals by functions' locals being allowed (locals may shadow
    globals — the inner binding wins, as in C), variables defined before
    use, array indexing only on arrays, assignment targets of scalar type,
    calls to defined functions with matching arity, and the presence of a
    [main] function.
    @raise Check_error otherwise. *)

val global_id : env -> string -> int option
(** The dense id of a global, or [None] for locals/params. *)

val global_count : env -> int

val is_global_array : env -> string -> bool

val global_name : env -> int -> string
(** The global with that dense id; ["g<id>"] for an id no global has. *)

val extent : env -> string -> (int * int) option
(** The cells of a global, inclusive: [(0, n - 1)] for an [n]-cell array
    ([(0, 0)] when [n = 0]), [(0, 0)] for a scalar; [None] for a name no
    global has. *)

val extents : env -> (int * int) array
(** Every global's {!extent}, indexed by global id. *)
