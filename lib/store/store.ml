(** Persistent content-addressed analysis-result store.

    {!Entry}: distilled WCET/BCET results (bound + full {!Attrib}
    decomposition) with a canonical versioned binary codec.
    {!Disk}: the bounded, checksummed, LRU-evicting on-disk layer.
    {!Front}: {!Engine.Lru} of decoded entries in front of a disk. *)

module Entry = Entry
module Disk = Disk
module Front = Front
