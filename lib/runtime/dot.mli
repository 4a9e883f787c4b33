(** Graphviz export of object graphs, for debugging and documentation:
    each object is a node labelled with class, id, flag and scalar
    fields; edges follow child slots. *)

val to_dot : ?graph_name:string -> Model.obj list -> string
(** DOT source for the graph reachable from the roots (shared objects
    appear once). Modified objects are drawn with a doubled border. *)
