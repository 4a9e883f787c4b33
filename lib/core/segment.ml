type kind = Full | Incremental

type t = { kind : kind; seq : int; roots : int list; body : string }

let pp_kind ppf = function
  | Full -> Format.pp_print_string ppf "full"
  | Incremental -> Format.pp_print_string ppf "incremental"

let body_size t = String.length t.body
