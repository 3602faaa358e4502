"""Over-the-air programming: compression, flash, MAC and the updater."""

from repro.ota.ap import AccessPoint, CampaignTimeline, NodeSession
from repro.ota.bank import (
    BootResult,
    Checkpoint,
    CheckpointLog,
    FirmwareBanks,
    ImageRecord,
)
from repro.ota.blocks import (
    BLOCK_BYTES,
    CompressedBlock,
    compression_summary,
    parse_wire_image,
    reassemble,
    split_and_compress,
    total_compressed_bytes,
    wire_image,
)
from repro.ota.flash import (
    FlashStats,
    Mx25R6435F,
    PAGE_BYTES,
    SECTOR_BYTES,
)
from repro.ota.broadcast import BroadcastReport, simulate_broadcast_campaign
from repro.ota.hardened import (
    HardenedOtaSession,
    OUTCOME_ABANDONED,
    OUTCOME_RESUMED,
    OUTCOME_ROLLED_BACK,
    OUTCOME_SUCCEEDED,
)
from repro.ota.mac import (
    DATA_PAYLOAD_BYTES,
    DEFAULT_OTA_PARAMS,
    DataPacket,
    EndOfUpdate,
    OTA_PREAMBLE_SYMBOLS,
    OtaLink,
    ProgrammingRequest,
    ReadyMessage,
    RetryPolicy,
    TransferReport,
    fragment_image,
    simulate_transfer,
)
from repro.ota.minilzo import compress, compression_ratio, decompress
from repro.ota.updater import (
    DECOMPRESS_BANDWIDTH_BPS,
    OtaUpdater,
    UpdateReport,
)

__all__ = [
    "AccessPoint",
    "BootResult",
    "BroadcastReport",
    "CampaignTimeline",
    "Checkpoint",
    "CheckpointLog",
    "FirmwareBanks",
    "HardenedOtaSession",
    "ImageRecord",
    "NodeSession",
    "OUTCOME_ABANDONED",
    "OUTCOME_RESUMED",
    "OUTCOME_ROLLED_BACK",
    "OUTCOME_SUCCEEDED",
    "simulate_broadcast_campaign",
    "BLOCK_BYTES",
    "CompressedBlock",
    "DATA_PAYLOAD_BYTES",
    "DECOMPRESS_BANDWIDTH_BPS",
    "DEFAULT_OTA_PARAMS",
    "DataPacket",
    "EndOfUpdate",
    "FlashStats",
    "Mx25R6435F",
    "OTA_PREAMBLE_SYMBOLS",
    "OtaLink",
    "OtaUpdater",
    "PAGE_BYTES",
    "ProgrammingRequest",
    "ReadyMessage",
    "RetryPolicy",
    "SECTOR_BYTES",
    "TransferReport",
    "UpdateReport",
    "compress",
    "compression_ratio",
    "compression_summary",
    "decompress",
    "fragment_image",
    "parse_wire_image",
    "simulate_transfer",
    "split_and_compress",
    "total_compressed_bytes",
    "wire_image",
]
