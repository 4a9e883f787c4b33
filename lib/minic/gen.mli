(** Workload generator: deterministic construction of the analysis engine's
    input programs. {!image_program} produces the analog of the paper's
    "750-line image manipulation program" (Section 4.3) — a pipeline of
    convolution filters, histogram and contrast passes over a global image
    buffer; the size scales with [n_filters].

    The generated programs are well-formed ({!Check.check} passes) and
    executable ({!Interp.run} terminates). *)

val image_program : ?width:int -> ?height:int -> ?n_filters:int -> unit -> Ast.program
(** Defaults: [width = 24], [height = 16], [n_filters = 15] — about 750
    non-blank source lines when printed with {!Pp.pp_program}. *)

val small_program : unit -> Ast.program
(** A ~40-line program exercising every statement form, for tests. *)

val static_globals : string list
(** The globals a specializer would treat as known at specialization time
    (dimensions, kernels, thresholds) — the initial division handed to the
    binding-time analysis. The image payload and the noise seed are
    dynamic. *)

val random_program : seed:int -> unit -> Ast.program
(** A deterministically random annotation-free workload (same seed, same
    program): 2–4 scalars, 1–3 arrays, worker functions storing through
    literal, affine and value-dependent indices under bounded loops (half
    the stored values read an array cell, at the loop counter, an affine
    or a value-dependent index), and
    a [main] of optional setup calls plus one or two checkpoint-round
    loops. Always checks, terminates, stays in bounds, and keeps scalars
    non-negative — the property-test input for the automatic inference
    pipeline (invariant I8 with zero declarations). *)
