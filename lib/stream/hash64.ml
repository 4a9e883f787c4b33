(* FNV-1a over bytes, with the standard 64-bit parameters. Native-int
   multiplication wraps mod 2^63 (on 64-bit platforms), which simply folds
   the top bit away; the result keeps FNV's distribution properties at 63
   bits and stays an immediate (unboxed) value — keys go straight into
   Hashtbls and varints. *)

(* 0xcbf29ce484222325 exceeds max_int, so it is written as an Int64 and
   truncated; Int64.to_int keeps the low 63 bits, which is exactly the
   mod-2^63 fold the rest of the arithmetic performs anyway. *)
let init = Int64.to_int 0xcbf29ce484222325L

let prime = 0x100000001b3

let sub ?(h = init) s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Hash64.sub";
  let h = ref h in
  for i = pos to pos + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * prime
  done;
  !h

let string ?h s = sub ?h s ~pos:0 ~len:(String.length s)

(* One slice's hash is a chain of dependent multiplies, a few cycles a
   byte; four slices hashed in one loop keep four chains in flight. Each
   group runs together over its shortest slice, then each slice finishes
   alone. *)
let tiles s cuts =
  let n = Array.length cuts - 1 in
  for i = 0 to n - 1 do
    if cuts.(i) < 0 || cuts.(i) > cuts.(i + 1) || cuts.(i + 1) > String.length s
    then invalid_arg "Hash64.tiles"
  done;
  let keys = Array.make (max n 0) 0 in
  let i = ref 0 in
  while !i + 4 <= n do
    let k = !i in
    let p0 = cuts.(k) and p1 = cuts.(k + 1) and p2 = cuts.(k + 2)
    and p3 = cuts.(k + 3) and p4 = cuts.(k + 4) in
    let m = min (min (p1 - p0) (p2 - p1)) (min (p3 - p2) (p4 - p3)) in
    let h0 = ref init and h1 = ref init and h2 = ref init and h3 = ref init in
    for j = 0 to m - 1 do
      h0 := (!h0 lxor Char.code (String.unsafe_get s (p0 + j))) * prime;
      h1 := (!h1 lxor Char.code (String.unsafe_get s (p1 + j))) * prime;
      h2 := (!h2 lxor Char.code (String.unsafe_get s (p2 + j))) * prime;
      h3 := (!h3 lxor Char.code (String.unsafe_get s (p3 + j))) * prime
    done;
    keys.(k) <- sub ~h:!h0 s ~pos:(p0 + m) ~len:(p1 - p0 - m);
    keys.(k + 1) <- sub ~h:!h1 s ~pos:(p1 + m) ~len:(p2 - p1 - m);
    keys.(k + 2) <- sub ~h:!h2 s ~pos:(p2 + m) ~len:(p3 - p2 - m);
    keys.(k + 3) <- sub ~h:!h3 s ~pos:(p3 + m) ~len:(p4 - p3 - m);
    i := k + 4
  done;
  for k = !i to n - 1 do
    keys.(k) <- sub s ~pos:cuts.(k) ~len:(cuts.(k + 1) - cuts.(k))
  done;
  keys

let bytes ?h b = string ?h (Bytes.unsafe_to_string b)

let to_hex k = Printf.sprintf "%016x" k
