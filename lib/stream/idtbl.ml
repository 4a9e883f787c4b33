(* [table] holds [slot + 1] per bucket (0 = empty) and the key of a slot
   is [keys.(slot)], so a probe compares keys without a second key array
   per bucket. [table] is a power of two at least twice [n], so probes
   stay short and always reach an empty bucket. *)
type t = {
  mutable table : int array;
  mutable keys : int array;
  mutable n : int;
}

let hash x =
  let h = x * 0x9e3779b97f4a7c1 in
  h lxor (h lsr 32)

let rec pow2_at_least n p = if p >= n then p else pow2_at_least n (2 * p)

let create hint =
  let cap = max 8 hint in
  { table = Array.make (pow2_at_least (2 * cap) 16) 0;
    keys = Array.make cap 0;
    n = 0 }

let length t = t.n

(* Only the buckets need emptying: a slot's key is read only while a
   bucket points at it. *)
let clear t =
  Array.fill t.table 0 (Array.length t.table) 0;
  t.n <- 0

(* The bucket holding [key], or the empty bucket where it would go. *)
let rec probe table keys mask key i =
  let e = Array.unsafe_get table i in
  if e = 0 || Array.unsafe_get keys (e - 1) = key then i
  else probe table keys mask key ((i + 1) land mask)

let bucket t key =
  let mask = Array.length t.table - 1 in
  probe t.table t.keys mask key (hash key land mask)

let find t key = Array.unsafe_get t.table (bucket t key) - 1

let mem t key = find t key >= 0

let rehash t =
  let table = Array.make (2 * Array.length t.table) 0 in
  let mask = Array.length table - 1 in
  for s = 0 to t.n - 1 do
    let key = t.keys.(s) in
    table.(probe table t.keys mask key (hash key land mask)) <- s + 1
  done;
  t.table <- table

let add t key =
  let b = bucket t key in
  let e = Array.unsafe_get t.table b in
  if e > 0 then e - 1
  else begin
    let s = t.n in
    if s = Array.length t.keys then begin
      let keys = Array.make (2 * s) 0 in
      Array.blit t.keys 0 keys 0 s;
      t.keys <- keys
    end;
    t.keys.(s) <- key;
    t.table.(b) <- s + 1;
    t.n <- s + 1;
    if 2 * t.n > Array.length t.table then rehash t;
    s
  end

let key t s =
  if s < 0 || s >= t.n then invalid_arg "Idtbl.key";
  t.keys.(s)

let iter t f =
  for s = 0 to t.n - 1 do
    f s t.keys.(s)
  done
