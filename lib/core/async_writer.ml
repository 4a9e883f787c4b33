module Batch = struct
  type policy = { max_items : int; max_bytes : int; linger : float }
end
