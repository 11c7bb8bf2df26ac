package xmlmodel

// WriteBufSize lets the external tests aim at WriteElement's flush boundary.
const WriteBufSize = writeBufSize
