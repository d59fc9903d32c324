package fastpath

// BatchBlocks is batchBlocks, for the differential tests' call sizes.
const BatchBlocks = batchBlocks
