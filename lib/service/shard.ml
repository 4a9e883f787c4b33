let default_count = 4

let max_count = 1024

let of_id ~shards id =
  if shards < 1 then invalid_arg "Shard.of_id: shards < 1";
  (id land max_int) mod shards

let of_name ~shards name = of_id ~shards (Ickpt_stream.Hash64.string name)
