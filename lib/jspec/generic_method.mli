(** The generic incremental checkpointing algorithm (paper Figure 1),
    expressed in {!Cklang} so that it can be analyzed and specialized.

    Executing {!program} with {!Interp} or {!Compile} is byte-for-byte
    equivalent to {!Ickpt_core.Checkpointer.incremental} on any object graph
    whose classes use the default (preprocessor-generated) [record]/[fold]
    methods. *)

val program : Cklang.program
