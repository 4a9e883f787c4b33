type t =
  | Always_full
  | Incremental_after_base
  | Full_every of int
  | Chain_bytes_limit of int

let pp ppf = function
  | Always_full -> Format.pp_print_string ppf "always-full"
  | Incremental_after_base -> Format.pp_print_string ppf "incremental"
  | Full_every n -> Format.fprintf ppf "full-every-%d" n
  | Chain_bytes_limit n -> Format.fprintf ppf "chain-bytes-limit-%d" n

let decide t ~next ~since_full_bytes =
  match next with
  | None -> Segment.Full
  | Some next -> (
      match t with
      | Always_full -> Segment.Full
      | Incremental_after_base -> Segment.Incremental
      | Full_every n ->
          if n <= 0 then invalid_arg "Policy.Full_every: n must be positive";
          if next mod n = 0 then Segment.Full else Segment.Incremental
      | Chain_bytes_limit limit ->
          if since_full_bytes > limit then Segment.Full
          else Segment.Incremental)
