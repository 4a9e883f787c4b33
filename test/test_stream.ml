open Ickpt_stream

let check_int = Alcotest.(check int)

let varint_roundtrip () =
  let cases =
    [ 0; 1; -1; 2; -2; 63; 64; -64; -65; 127; 128; 300; -300; 0xdeadbeef;
      -0xdeadbeef; max_int; min_int; max_int - 1; min_int + 1 ]
  in
  List.iter
    (fun n ->
      let buf = Buffer.create 16 in
      Varint.write buf n;
      let s = Buffer.contents buf in
      check_int
        (Printf.sprintf "encoded_size %d" n)
        (String.length s) (Varint.encoded_size n);
      let v, next = Varint.read s 0 in
      check_int (Printf.sprintf "roundtrip %d" n) n v;
      check_int "consumed all" (String.length s) next)
    cases

let varint_zigzag () =
  check_int "zz 0" 0 (Varint.zigzag 0);
  check_int "zz -1" 1 (Varint.zigzag (-1));
  check_int "zz 1" 2 (Varint.zigzag 1);
  check_int "zz -2" 3 (Varint.zigzag (-2));
  List.iter
    (fun n -> check_int "unzz inverse" n (Varint.unzigzag (Varint.zigzag n)))
    [ 0; 5; -5; max_int; min_int ]

let varint_truncated () =
  let buf = Buffer.create 4 in
  Varint.write buf max_int;
  let s = Buffer.contents buf in
  let truncated = String.sub s 0 (String.length s - 1) in
  Alcotest.check_raises "truncated" (Invalid_argument "Varint.read: truncated input")
    (fun () -> ignore (Varint.read truncated 0))

let crc32_vector () =
  (* Standard IEEE CRC-32 check value. *)
  check_int "123456789" 0xcbf43926 (Crc32.string "123456789");
  check_int "empty" 0 (Crc32.string "");
  (* Incremental computation must agree with one-shot. *)
  let s = "hello, checkpoint world" in
  let half = String.length s / 2 in
  let c1 = Crc32.sub s ~pos:0 ~len:half in
  let c2 = Crc32.sub s ~pos:half ~len:(String.length s - half) ~crc:c1 in
  check_int "incremental" (Crc32.string s) c2;
  (* The table index stays in range whatever [?crc] holds. *)
  check_int "only the low 32 bits of ?crc count"
    (Crc32.string ~crc:0xffffffff s)
    (Crc32.string ~crc:(-1) s)

let stream_roundtrip () =
  let d = Out_stream.create () in
  Out_stream.write_int d 42;
  Out_stream.write_byte d 0xab;
  Out_stream.write_fixed32 d 0xdeadbeef;
  Out_stream.write_string d "payload";
  Out_stream.write_int d (-7);
  let inp = In_stream.of_string (Out_stream.contents d) in
  check_int "int" 42 (In_stream.read_int inp);
  check_int "byte" 0xab (In_stream.read_byte inp);
  check_int "fixed32" 0xdeadbeef (In_stream.read_fixed32 inp);
  Alcotest.(check string) "string" "payload" (In_stream.read_string inp);
  check_int "neg int" (-7) (In_stream.read_int inp);
  Alcotest.(check bool) "at_end" true (In_stream.at_end inp)

let sink_counts () =
  let ops d =
    Out_stream.write_int d 123456;
    Out_stream.write_byte d 7;
    Out_stream.write_string d "abcdef";
    Out_stream.write_fixed32 d 99;
    Out_stream.write_int d min_int
  in
  let buffered = Out_stream.create () in
  let sink = Out_stream.sink () in
  ops buffered;
  ops sink;
  check_int "sink size = buffered size" (Out_stream.size buffered)
    (Out_stream.size sink);
  Alcotest.(check bool) "is_sink" true (Out_stream.is_sink sink);
  Alcotest.check_raises "sink contents"
    (Invalid_argument "Out_stream.contents: sink stream") (fun () ->
      ignore (Out_stream.contents sink))

let reset_stream () =
  let d = Out_stream.create () in
  Out_stream.write_int d 5;
  Out_stream.reset d;
  check_int "size 0 after reset" 0 (Out_stream.size d);
  Out_stream.write_int d 9;
  let inp = In_stream.of_string (Out_stream.contents d) in
  check_int "only post-reset data" 9 (In_stream.read_int inp)

let in_stream_errors () =
  let inp = In_stream.of_string "" in
  Alcotest.(check bool) "empty at_end" true (In_stream.at_end inp);
  (match In_stream.read_byte inp with
  | _ -> Alcotest.fail "expected Corrupt"
  | exception In_stream.Corrupt _ -> ());
  let d = Out_stream.create () in
  Out_stream.write_byte d 3;
  let inp = In_stream.of_string (Out_stream.contents d) in
  match In_stream.expect_byte inp 4 "tag" with
  | () -> Alcotest.fail "expected Corrupt on tag mismatch"
  | exception In_stream.Corrupt msg ->
      Alcotest.(check bool) "message names tag" true
        (String.length msg > 0)

let of_string_at () =
  let d = Out_stream.create () in
  Out_stream.write_fixed32 d 1;
  Out_stream.write_fixed32 d 2;
  let s = Out_stream.contents d in
  let inp = In_stream.of_string_at s ~pos:4 in
  check_int "reads second word" 2 (In_stream.read_fixed32 inp);
  Alcotest.check_raises "bad pos" (Invalid_argument "In_stream.of_string_at")
    (fun () -> ignore (In_stream.of_string_at s ~pos:100))

(* [read_ints] reads what as many [read_int]s would, with the same error
   where they would fail: at the end of a window, whatever bytes follow it
   in the string. *)
let prop_read_ints =
  QCheck2.Test.make ~name:"read_ints = read_int, within a window" ~count:300
    QCheck2.Gen.(
      triple
        (list (frequency [ (5, int); (1, small_int) ]))
        nat
        (string_size ~gen:char (int_range 0 8)))
    (fun (ints, cut, tail) ->
      let d = Out_stream.create () in
      List.iter (Out_stream.write_int d) ints;
      let body = Out_stream.contents d in
      let s = "ab" ^ body ^ tail and len = cut mod (String.length body + 1) in
      let n = List.length ints in
      let one = In_stream.of_string s and many = In_stream.of_string s in
      In_stream.window one ~pos:2 ~len;
      In_stream.window many ~pos:2 ~len;
      let singly =
        let a = Array.make n 0 in
        match
          for i = 0 to n - 1 do
            a.(i) <- In_stream.read_int one
          done
        with
        | () -> Ok a
        | exception In_stream.Corrupt m -> Error m
      in
      let batched =
        let a = Array.make n 0 in
        match In_stream.read_ints many a n with
        | () -> Ok a
        | exception In_stream.Corrupt m -> Error m
      in
      singly = batched
      && (len < String.length body || singly = Ok (Array.of_list ints))
      && (Result.is_error singly || In_stream.pos one = In_stream.pos many))

(* Property: any int sequence survives a write/read roundtrip, and the sink
   stream always reports the same size as the buffered stream. *)
let prop_int_roundtrip =
  QCheck2.Test.make ~name:"varint roundtrip (random)" ~count:500
    QCheck2.Gen.(list (frequency [ (5, int); (1, oneofl [ max_int; min_int; 0 ]) ]))
    (fun ints ->
      let d = Out_stream.create () in
      let sink = Out_stream.sink () in
      List.iter
        (fun n ->
          Out_stream.write_int d n;
          Out_stream.write_int sink n)
        ints;
      let inp = In_stream.of_string (Out_stream.contents d) in
      let back = List.map (fun _ -> In_stream.read_int inp) ints in
      back = ints
      && In_stream.at_end inp
      && Out_stream.size d = Out_stream.size sink)

let prop_crc_detects_flip =
  QCheck2.Test.make ~name:"crc32 detects single bit flip" ~count:200
    QCheck2.Gen.(
      pair (string_size ~gen:char (int_range 1 64)) (int_range 0 1000))
    (fun (s, r) ->
      let pos = r mod String.length s in
      let bit = r mod 8 in
      let b = Bytes.of_string s in
      Bytes.set b pos
        (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
      Crc32.string s <> Crc32.bytes b)

(* The plain bytewise CRC-32, as the reference the slicing-by-16 one is
   held to. *)
let reference_crc ?(crc = 0) s ~pos ~len =
  let c = ref (crc lxor 0xffffffff) in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code s.[i];
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  !c lxor 0xffffffff

(* Every window of 0..64 bytes (none, some or four 16-byte blocks, and
   every tail length) at offsets 0..15 (every alignment of the 8-byte
   loads), and the whole string, up to 4 KiB. *)
let prop_crc_reference =
  QCheck2.Test.make ~name:"crc32 matches the bytewise reference" ~count:200
    QCheck2.Gen.(string_size ~gen:char (int_range 0 4096))
    (fun s ->
      let n = String.length s in
      Crc32.string s = reference_crc s ~pos:0 ~len:n
      && List.for_all
           (fun pos ->
             List.for_all
               (fun len ->
                 pos + len > n
                 || Crc32.sub s ~pos ~len = reference_crc s ~pos ~len)
               (List.init 65 Fun.id))
           (List.init 16 Fun.id))

(* Split anywhere in 40 bytes, so either side may hold a 16-byte block
   and a tail. *)
let prop_crc_continuation =
  QCheck2.Test.make ~name:"crc32 continues at every split point" ~count:200
    QCheck2.Gen.(string_size ~gen:char (return 40))
    (fun s ->
      List.for_all
        (fun k ->
          let head = Crc32.sub s ~pos:0 ~len:k in
          Crc32.sub ~crc:head s ~pos:k ~len:(40 - k)
          = reference_crc s ~pos:0 ~len:40
          && Crc32.string ~crc:head (String.sub s k (40 - k))
             = Crc32.string s)
        (List.init 41 Fun.id))

(* The flat stream is held to a reference encoder over [Buffer], written
   here independently of [Varint]: zigzag, then base-128 groups, least
   significant first, the high bit set on all but the last. *)
type op =
  | Int of int
  | Byte of int
  | Fixed32 of int
  | Substring of string * int * int
  | Run of int * int * (int * int) list  (** tag, previous id, records *)

let reference_bytes ops =
  let b = Buffer.create 64 in
  let varint n =
    let u = ref ((n lsl 1) lxor (n asr 62)) in
    while !u lsr 7 <> 0 do
      Buffer.add_char b (Char.chr (!u land 0x7f lor 0x80));
      u := !u lsr 7
    done;
    Buffer.add_char b (Char.chr !u)
  in
  List.iter
    (function
      | Int n -> varint n
      | Byte n -> Buffer.add_char b (Char.chr (n land 0xff))
      | Fixed32 n ->
          for i = 0 to 3 do
            Buffer.add_char b (Char.chr ((n lsr (8 * i)) land 0xff))
          done
      | Substring (s, pos, len) ->
          varint len;
          Buffer.add_string b (String.sub s pos len)
      | Run (tag, prev, records) ->
          varint tag;
          varint (List.length records);
          ignore
            (List.fold_left
               (fun (id, off) (i, o) ->
                 varint (i - id);
                 varint (o - off);
                 (i, o))
               (prev, 0) records))
    ops;
  Buffer.contents b

let write_op d = function
  | Int n -> Out_stream.write_int d n
  | Byte n -> Out_stream.write_byte d n
  | Fixed32 n -> Out_stream.write_fixed32 d n
  | Substring (s, pos, len) -> Out_stream.write_substring d s ~pos ~len
  | Run (tag, prev, records) ->
      (* The run lies after a record of another, in arrays longer than it. *)
      let ids = Array.of_list ((7 :: List.map fst records) @ [ 8 ]) in
      let offs = Array.of_list ((9 :: List.map snd records) @ [ 10 ]) in
      Out_stream.write_run d ~tag ~ids ~offs ~first:1
        ~count:(List.length records) ~prev

let op_gen =
  let open QCheck2.Gen in
  let edge = oneofl [ 0; -1; 1; 63; 64; -64; -65; 127; 128; max_int; min_int;
                      max_int - 1; min_int + 1; 1 lsl 62; -(1 lsl 62) ] in
  frequency
    [ (6, map (fun n -> Int n) (frequency [ (3, int); (2, edge); (2, small_signed_int) ]));
      (2, map (fun n -> Byte n) int);
      (2, map (fun n -> Fixed32 n) (frequency [ (3, int); (1, edge) ]));
      (1,
        map2
          (fun s (a, b) ->
            let n = String.length s in
            let pos = if n = 0 then 0 else a mod (n + 1) in
            Substring (s, pos, if n = 0 then 0 else b mod (n - pos + 1)))
          (string_size ~gen:char (int_range 0 300))
          (pair nat nat));
      (1,
        let value = frequency [ (3, int); (2, edge); (2, small_signed_int) ] in
        map3
          (fun tag prev records -> Run (tag, prev, records))
          value value
          (list_size (int_range 0 40) (pair value value))) ]

let prop_out_stream_reference =
  QCheck2.Test.make ~name:"flat out_stream = Buffer reference" ~count:300
    QCheck2.Gen.(pair (int_range 1 64) (list_size (int_range 0 400) op_gen))
    (fun (initial_size, ops) ->
      let expected = reference_bytes ops in
      (* A tiny buffer grows many times; a reset one is reused. *)
      let d = Out_stream.create ~initial_size () and sink = Out_stream.sink () in
      List.iter (write_op d) ops;
      List.iter (write_op sink) ops;
      let first = Out_stream.contents d in
      Out_stream.reset d;
      List.iter (write_op d) ops;
      first = expected
      && Out_stream.contents d = expected
      && Out_stream.size sink = String.length expected
      && Out_stream.size d = String.length expected)

(* [skip_varints] stops where reading the varints one by one stops, and a
   truncated input raises the same error. *)
let prop_skip_varints =
  QCheck2.Test.make ~name:"skip_varints = read_int n times" ~count:300
    QCheck2.Gen.(
      triple (list_size (int_range 0 30) int) (int_range 0 40) (int_range 0 400))
    (fun (ints, n, cut) ->
      let d = Out_stream.create () in
      List.iter (Out_stream.write_int d) ints;
      let s = Out_stream.contents d in
      let s = String.sub s 0 (min cut (String.length s)) in
      let outcome f =
        let inp = In_stream.of_string s in
        match f inp with
        | () -> Ok (In_stream.pos inp)
        | exception In_stream.Corrupt msg -> Error msg
      in
      outcome (fun inp -> In_stream.skip_varints inp n)
      = outcome (fun inp ->
            for _ = 1 to n do
              ignore (In_stream.read_int inp : int)
            done))

(* The id table against a [Hashtbl] model: slots are dense, in insertion
   order, and survive growth from a presize of 1. Keys are adversarial
   for a masked hash: negative, multiples of large powers of two, and
   repeats. *)
let key_gen =
  let open QCheck2.Gen in
  frequency
    [ (3, int);
      (2, map2 (fun k i -> i lsl k) (int_range 20 40) (int_range (-500) 500));
      (2, int_range (-50) 50);
      (1, oneofl [ min_int; max_int; 0; -1 ]) ]

let prop_idtbl_model =
  QCheck2.Test.make ~name:"idtbl = Hashtbl model" ~count:300
    QCheck2.Gen.(pair (int_range 1 8) (list_size (int_range 0 3000) key_gen))
    (fun (presize, keys) ->
      let t = Idtbl.create presize and model = Hashtbl.create 16 in
      let order = ref [] in
      let adds_agree =
        List.for_all
          (fun k ->
            let expected =
              match Hashtbl.find_opt model k with
              | Some s -> s
              | None ->
                  let s = Hashtbl.length model in
                  Hashtbl.add model k s;
                  order := k :: !order;
                  s
            in
            Idtbl.add t k = expected)
          keys
      in
      let seen = ref [] in
      Idtbl.iter t (fun s k -> seen := (s, k) :: !seen);
      adds_agree
      && Idtbl.length t = Hashtbl.length model
      && Hashtbl.fold
           (fun k s ok -> ok && Idtbl.find t k = s && Idtbl.key t s = k)
           model true
      && List.rev !seen = List.mapi (fun s k -> (s, k)) (List.rev !order)
      && List.for_all
           (fun k -> Hashtbl.mem model k || (Idtbl.find t k = -1 && not (Idtbl.mem t k)))
           [ 7; -7; 1 lsl 50; min_int + 3 ])

(* Adds interleaved with clears, against a [Hashtbl] model cleared in
   step: after a clear every key is gone and slots restart at 0, and a
   table refilled past what it held before still agrees. *)
let prop_idtbl_clear =
  QCheck2.Test.make ~name:"idtbl clear = Hashtbl model" ~count:300
    QCheck2.Gen.(
      pair (int_range 1 8)
        (list_size (int_range 0 40)
           (option (list_size (int_range 0 300) key_gen))))
    (fun (presize, ops) ->
      let t = Idtbl.create presize and model = Hashtbl.create 16 in
      let agrees () =
        Idtbl.length t = Hashtbl.length model
        && Hashtbl.fold
             (fun k s ok -> ok && Idtbl.find t k = s && Idtbl.key t s = k)
             model true
      in
      List.for_all
        (function
          | None ->
              Idtbl.clear t;
              Hashtbl.reset model;
              Idtbl.length t = 0
              && List.for_all
                   (fun k -> not (Idtbl.mem t k))
                   [ 0; 7; -7; 1 lsl 50; min_int ]
          | Some keys ->
              List.for_all
                (fun k ->
                  let expected =
                    match Hashtbl.find_opt model k with
                    | Some s -> s
                    | None ->
                        let s = Hashtbl.length model in
                        Hashtbl.add model k s;
                        s
                  in
                  Idtbl.add t k = expected)
                keys
              && agrees ())
        ops)

(* The tiled hash is {!Hash64.sub} per slice, whatever the slice lengths
   (empty ones, groups of four of unequal length, a ragged tail), and
   refuses cuts that are not ascending offsets into the string. *)
let prop_hash_tiles =
  QCheck2.Test.make ~name:"hash64 tiles = sub per slice" ~count:300
    QCheck2.Gen.(
      pair
        (string_size ~gen:char (int_range 0 600))
        (list_size (int_range 0 20) (int_range 0 80)))
    (fun (s, lens) ->
      let n = String.length s in
      let _, rev_cuts =
        List.fold_left
          (fun (at, acc) l ->
            let at = min n (at + l) in
            (at, at :: acc))
          (0, [ 0 ]) lens
      in
      let cuts = Array.of_list (List.rev rev_cuts) in
      let keys = Hash64.tiles s cuts in
      Array.length keys = Array.length cuts - 1
      && Array.for_all Fun.id
           (Array.mapi
              (fun i k ->
                k = Hash64.sub s ~pos:cuts.(i) ~len:(cuts.(i + 1) - cuts.(i)))
              keys))

let hash_tiles_bounds () =
  let refused cuts =
    match Hash64.tiles "abcdef" cuts with
    | _ -> Alcotest.failf "cuts accepted"
    | exception Invalid_argument _ -> ()
  in
  refused [| -1; 2 |];
  refused [| 3; 2 |];
  refused [| 0; 7 |];
  check_int "no cut, no key" 0 (Array.length (Hash64.tiles "abc" [||]));
  check_int "one cut, no key" 0 (Array.length (Hash64.tiles "abc" [| 1 |]))

let idtbl_bounds () =
  let t = Idtbl.create 0 in
  check_int "empty" (-1) (Idtbl.find t 0);
  check_int "first slot" 0 (Idtbl.add t 0);
  Alcotest.check_raises "key past the end" (Invalid_argument "Idtbl.key")
    (fun () -> ignore (Idtbl.key t 1))

let suites =
  [ ( "stream",
      [ Alcotest.test_case "varint roundtrip" `Quick varint_roundtrip;
        Alcotest.test_case "varint zigzag" `Quick varint_zigzag;
        Alcotest.test_case "varint truncated" `Quick varint_truncated;
        Alcotest.test_case "crc32 vector" `Quick crc32_vector;
        Alcotest.test_case "stream roundtrip" `Quick stream_roundtrip;
        Alcotest.test_case "sink counts" `Quick sink_counts;
        Alcotest.test_case "reset" `Quick reset_stream;
        Alcotest.test_case "in_stream errors" `Quick in_stream_errors;
        Alcotest.test_case "of_string_at" `Quick of_string_at;
        QCheck_alcotest.to_alcotest prop_int_roundtrip;
        QCheck_alcotest.to_alcotest prop_crc_detects_flip;
        QCheck_alcotest.to_alcotest prop_crc_reference;
        QCheck_alcotest.to_alcotest prop_read_ints;
        QCheck_alcotest.to_alcotest prop_crc_continuation;
        QCheck_alcotest.to_alcotest prop_out_stream_reference;
        QCheck_alcotest.to_alcotest prop_skip_varints ] );
    ( "idtbl",
      [ QCheck_alcotest.to_alcotest prop_idtbl_model;
        QCheck_alcotest.to_alcotest prop_idtbl_clear;
        Alcotest.test_case "bounds" `Quick idtbl_bounds ] );
    ( "hash64",
      [ QCheck_alcotest.to_alcotest prop_hash_tiles;
        Alcotest.test_case "tiles bounds" `Quick hash_tiles_bounds ] ) ]
